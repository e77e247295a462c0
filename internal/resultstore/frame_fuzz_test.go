package resultstore

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// The store's frame decoders read bytes from disk and from peers, so they
// must reject any input without panicking, and whatever they accept must be
// exactly the frame its decoded value encodes to: a frame has one encoding,
// so a store never serves bytes it could not have written.

func FuzzDecodeEntry(f *testing.F) {
	f.Add(EncodeEntry(nil))
	f.Add(EncodeEntry([]byte("payload")))
	f.Add(EncodeEntry(randBytes(1, 300))[:diskHeaderLen+10])
	f.Add([]byte(diskMagic))
	f.Fuzz(func(t *testing.T, raw []byte) {
		val, err := DecodeEntry(raw)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeEntry(val), raw) {
			t.Fatalf("accepted %d bytes that re-encode differently", len(raw))
		}
	})
}

func FuzzDecodeBlob(f *testing.F) {
	f.Add("key", EncodeBlob("key", []byte("payload")))
	f.Add("key", EncodeBlob("other", []byte("payload")))
	f.Add("", EncodeBlob("", nil))
	f.Add("key", []byte(blobMagic))
	f.Fuzz(func(t *testing.T, key string, raw []byte) {
		val, err := DecodeBlob(key, raw)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeBlob(key, val), raw) {
			t.Fatalf("accepted %d bytes for %q that re-encode differently", len(raw), key)
		}
	})
}

// FuzzDecodeManifest is seeded with entry files of this format, written by
// Put (one that holds its chunks, one that references chunks another file
// holds), and with the first format's manifests from the compatibility
// fixture.
func FuzzDecodeManifest(f *testing.F) {
	for _, val := range [][]byte{nil, []byte("a"), randBytes(1, chunkMax+chunkMin), randBytes(2, 3*chunkMax)} {
		d, err := OpenChunkedDisk(f.TempDir(), 0)
		if err != nil {
			f.Fatal(err)
		}
		d.Put("k", val)
		d.Put("shares", append([]byte("header"), val...))
		for _, key := range []string{"k", "shares"} {
			raw, err := os.ReadFile(d.path(manifestName(key)))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(raw)
		}
	}
	f.Add([]byte(chunkedMagic))
	err := filepath.WalkDir(filepath.Join(compatDir, "chunked", "m"), func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		f.Add(raw)
		return err
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(chunkedMagicV1))
	f.Fuzz(func(t *testing.T, raw []byte) {
		fr, body, err := decodeManifest(raw)
		if err != nil {
			return
		}
		if !bytes.Equal(append(appendManifest(nil, fr), body...), raw) {
			t.Fatalf("accepted %d bytes that re-encode differently", len(raw))
		}
	})
}
