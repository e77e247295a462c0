package resultstore

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"math/rand"
	"testing"
)

// randBytes is deterministic test data with enough entropy that gear-hash
// boundaries actually fire.
func randBytes(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	r.Read(b)
	return b
}

func TestSplitChunksIdentityAndBounds(t *testing.T) {
	for _, n := range []int{0, 1, chunkMin - 1, chunkMin, chunkAvg, chunkMax, chunkMax + 1, 64 << 10, 1 << 20} {
		data := randBytes(int64(n)+1, n)
		chunks := splitChunks(data)
		if n == 0 {
			if chunks != nil {
				t.Errorf("splitChunks(empty) = %d chunks, want nil", len(chunks))
			}
			continue
		}
		var joined []byte
		for i, c := range chunks {
			if len(c) > chunkMax {
				t.Errorf("n=%d chunk %d is %d bytes, over max %d", n, i, len(c), chunkMax)
			}
			if len(c) < chunkMin && i != len(chunks)-1 {
				t.Errorf("n=%d chunk %d is %d bytes, under min %d (only the tail may be)", n, i, len(c), chunkMin)
			}
			joined = append(joined, c...)
		}
		if !bytes.Equal(joined, data) {
			t.Errorf("n=%d: reassembled chunks differ from input", n)
		}
	}
}

// TestSplitChunksBoundaryStability is the property the chunked store's dedup
// rests on: an edit near the front of a payload must not move the chunk
// boundaries of the untouched tail, so neighboring sweep cells (which differ
// in a few fields and share the rest) share most of their chunks.
func TestSplitChunksBoundaryStability(t *testing.T) {
	base := randBytes(7, 256<<10)
	edited := append([]byte("prefix-insertion:"), base...)

	seen := map[[32]byte]bool{}
	for _, c := range chunkSums(base) {
		seen[c] = true
	}
	shared := 0
	editedChunks := chunkSums(edited)
	for _, c := range editedChunks {
		if seen[c] {
			shared++
		}
	}
	// Only the chunks covering the insertion point may differ; with ~128
	// chunks in 256 KiB, well over half must survive the edit verbatim.
	if shared*2 < len(editedChunks) {
		t.Errorf("only %d/%d chunks shared after a prefix insertion; content-defined boundaries are not stable", shared, len(editedChunks))
	}
}

func chunkSums(data []byte) [][32]byte {
	var out [][32]byte
	for _, c := range splitChunks(data) {
		out = append(out, sha256.Sum256(c))
	}
	return out
}

// compress is compressChunk into a buffer of its own.
func compress(chunk []byte) []byte {
	var buf bytes.Buffer
	compressChunk(&buf, chunk)
	return buf.Bytes()
}

// decompressChunk inflates comp into at most chunkMax bytes, as Peek does
// for a chunk with a whole chunkMax of payload left.
func decompressChunk(comp []byte) ([]byte, error) {
	out := make([]byte, chunkMax)
	n, err := inflateChunk(out, bytes.NewReader(comp))
	return out[:n], err
}

func TestCompressChunkRoundTrip(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		[]byte("x"),
		bytes.Repeat([]byte("abcd"), chunkMax/4), // compressible, exactly max-sized
		randBytes(3, chunkAvg),                   // incompressible
	} {
		comp := compress(data)
		got, err := decompressChunk(comp)
		if err != nil {
			t.Fatalf("decompress: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("round trip of %d bytes differs", len(data))
		}
	}
}

func TestDecompressChunkRejectsOversize(t *testing.T) {
	// A stream inflating past chunkMax can never come from splitChunks; the
	// decoder must reject it rather than balloon memory on a forged chunk.
	if _, err := decompressChunk(compress(make([]byte, chunkMax+1))); err == nil {
		t.Error("decompressChunk accepted a stream larger than chunkMax")
	}
	if _, err := decompressChunk([]byte("not a flate stream")); err == nil {
		t.Error("decompressChunk accepted garbage")
	}
}

// FuzzChunkReassemble fuzzes the identity the manifest format depends on:
// split, compress, decompress, rejoin must reproduce any input exactly —
// including inputs that are empty or smaller than one chunk.
func FuzzChunkReassemble(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("a"))
	f.Add(bytes.Repeat([]byte{0}, chunkMin))
	f.Add(randBytes(1, chunkMax+chunkMin))
	f.Add(randBytes(2, 3*chunkMax))
	f.Fuzz(func(t *testing.T, data []byte) {
		chunks := splitChunks(data)
		if (chunks == nil) != (len(data) == 0) {
			t.Fatalf("%d bytes split into %d chunks", len(data), len(chunks))
		}
		joined := make([]byte, 0, len(data))
		for i, c := range chunks {
			if len(c) == 0 || len(c) > chunkMax {
				t.Fatalf("chunk %d has invalid size %d", i, len(c))
			}
			rt, err := decompressChunk(compress(c))
			if err != nil {
				t.Fatalf("chunk %d compress round trip: %v", i, err)
			}
			joined = append(joined, rt...)
		}
		if !bytes.Equal(joined, data) {
			t.Fatal("reassembled payload differs from input")
		}
	})
}

// TestCompressChunkPooledMatchesFresh: chunk files are content-addressed
// and part of the on-disk format, so a pooled, reset writer must emit
// exactly the bytes a freshly built one does, however often it is reused
// and whatever it compressed before.
func TestCompressChunkPooledMatchesFresh(t *testing.T) {
	inputs := [][]byte{
		nil,
		[]byte("x"),
		bytes.Repeat([]byte("abcd"), chunkMax/4), // compressible, chunkMax-sized
		randBytes(4, chunkMax),                   // incompressible, chunkMax-sized
		randBytes(5, chunkAvg),
	}
	fresh := make([][]byte, len(inputs))
	for i, in := range inputs {
		var buf bytes.Buffer
		zw, err := flate.NewWriter(&buf, flate.DefaultCompression)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := zw.Write(in); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		fresh[i] = buf.Bytes()
	}
	var buf bytes.Buffer
	for round := 0; round < 3; round++ {
		for k := range inputs {
			i := (k + round) % len(inputs) // vary what the writer held before
			start := buf.Len()             // each chunk appends to what the buffer holds
			if n := compressChunk(&buf, inputs[i]); n != buf.Len()-start || !bytes.Equal(buf.Bytes()[start:], fresh[i]) {
				t.Fatalf("round %d, input %d (%d bytes): pooled writer's output differs from a fresh writer's", round, i, len(inputs[i]))
			}
		}
	}
}

// TestInflateAfterCorruptStream: a pooled reader that failed on a corrupt,
// truncated or oversized stream goes back to the pool; the next chunk it
// decodes must still inflate exactly.
func TestInflateAfterCorruptStream(t *testing.T) {
	good := randBytes(6, chunkAvg)
	comp := compress(good)
	bad := [][]byte{
		[]byte("not a flate stream"),
		comp[:len(comp)/2], // truncated
		compress(make([]byte, chunkMax+1)),
	}
	for round := 0; round < 20; round++ {
		if _, err := decompressChunk(bad[round%len(bad)]); err == nil {
			t.Fatalf("round %d: bad stream %d accepted", round, round%len(bad))
		}
		got, err := decompressChunk(comp)
		if err != nil || !bytes.Equal(got, good) {
			t.Fatalf("round %d: decode after a failed one: err=%v, bytes equal=%v", round, err, bytes.Equal(got, good))
		}
	}
}
