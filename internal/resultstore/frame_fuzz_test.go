package resultstore

import (
	"bytes"
	"os"
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

func FuzzDecodeManifest(f *testing.F) {
	for _, val := range [][]byte{nil, []byte("a"), randBytes(1, chunkMax+chunkMin), randBytes(2, 3*chunkMax)} {
		d, err := OpenChunkedDisk(f.TempDir(), 0)
		if err != nil {
			f.Fatal(err)
		}
		d.Put("k", val)
		raw, err := os.ReadFile(d.path(manifestName("k")))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(chunkedMagic))
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := decodeManifest(raw)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeManifest(m), raw) {
			t.Fatalf("accepted %d bytes that re-encode differently", len(raw))
		}
	})
}
