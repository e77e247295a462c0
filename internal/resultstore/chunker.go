package resultstore

import (
	"bufio"
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Content-defined chunking (FastCDC-style) for the chunked disk tier.
//
// Entry payloads are split at boundaries chosen by a gear-hash rolling over
// the content, not at fixed offsets, so two payloads that share long byte
// runs (neighboring sweep cells differ in a few config fields but share most
// response bytes) produce mostly identical chunks even when the shared runs
// sit at different offsets. Chunks are content-addressed by SHA-256, so
// identical chunks are stored once no matter how many entries reference
// them.
//
// Sizes are tuned for this store's payloads (JSON result bodies, a few KB
// to a few hundred KB): small enough that a localized edit dirties one or
// two chunks, large enough that per-chunk file overhead stays negligible.
const (
	chunkMin = 512  // no boundary before this many bytes
	chunkAvg = 2048 // target average chunk size (2^11)
	chunkMax = 8192 // forced boundary at this many bytes
)

// FastCDC normalized chunking: before the average-size point boundaries
// must clear a harder mask (avg bits + 2), past it an easier one (avg bits
// - 2), pulling the size distribution toward the average. The gear hash
// mixes old bytes into high bits, so the masks test high bits.
const (
	chunkMaskS = uint64(0xFFF8) << 48 // 13 one-bits
	chunkMaskL = uint64(0xFF80) << 48 // 9 one-bits
)

// gearTable is the byte → random-odd-word table the rolling hash folds over.
// It is derived from SHA-256 so every build and process chunks identically —
// chunk boundaries are part of the on-disk format.
var gearTable = func() [256]uint64 {
	var t [256]uint64
	for i := 0; i < 256; i += 4 {
		sum := sha256.Sum256([]byte{'g', 'e', 'a', 'r', byte(i)})
		for j := 0; j < 4; j++ {
			t[i+j] = binary.BigEndian.Uint64(sum[j*8:])
		}
	}
	return t
}()

// cutPoint returns the length of the next chunk of data (1..chunkMax),
// choosing a content-defined boundary between chunkMin and chunkMax.
// len(data) must be > 0.
func cutPoint(data []byte) int {
	n := len(data)
	if n <= chunkMin {
		return n
	}
	if n > chunkMax {
		n = chunkMax
	}
	normal := chunkAvg
	if n < normal {
		normal = n
	}
	var h uint64
	i := chunkMin
	for ; i < normal; i++ {
		h = (h << 1) + gearTable[data[i]]
		if h&chunkMaskS == 0 {
			return i + 1
		}
	}
	for ; i < n; i++ {
		h = (h << 1) + gearTable[data[i]]
		if h&chunkMaskL == 0 {
			return i + 1
		}
	}
	return n
}

// splitChunks splits data into content-defined chunks. The returned slices
// alias data; concatenated in order they are exactly data. An empty payload
// yields no chunks.
func splitChunks(data []byte) [][]byte {
	var out [][]byte
	for len(data) > 0 {
		n := cutPoint(data)
		out = append(out, data[:n])
		data = data[n:]
	}
	return out
}

// Chunk compression. compress/flate (stdlib DEFLATE) rather than zstd: the
// module is dependency-free and the build environment resolves no external
// modules, so vendoring klauspost/compress is not on the table — and at the
// few-KB chunk sizes used here DEFLATE's ratio on JSON payloads is within a
// few percent of zstd's while keeping the store self-contained.
//
// A flate.Writer allocates about 800 KB of match-finder state and a reader
// about 45 KB of window and tables, so both are pooled and reset per chunk rather than
// built per chunk. Reset restores a codec to its freshly built state: a
// pooled writer emits the same bytes a new one would (the chunk files are
// part of the on-disk format), and a reader that hit a corrupt stream
// decodes the next one cleanly.
var (
	flateWriters = sync.Pool{New: func() any {
		zw, err := flate.NewWriter(nil, flate.DefaultCompression)
		if err != nil { // impossible for a valid level
			panic(err)
		}
		return zw
	}}
	flateReaders = sync.Pool{New: func() any {
		r := &inflater{src: bufio.NewReaderSize(nil, inflateBuffer)}
		r.zr = flate.NewReader(r.src)
		return r
	}}
)

// inflateBuffer sizes an inflater's source buffer to hold a whole
// compressed chunk, so a chunk read from its file takes one read.
const inflateBuffer = chunkMax + chunkMax/8

// inflater is a pooled flate reader and the buffered source it reads from;
// flate needs an io.ByteReader, or it wraps one of its own per stream.
type inflater struct {
	src *bufio.Reader
	zr  io.ReadCloser // implements flate.Resetter
}

// compressChunk appends chunk, DEFLATE-compressed, to buf and returns the
// compressed length. Put calls it only for chunks the store does not hold
// yet.
func compressChunk(buf *bytes.Buffer, chunk []byte) int {
	n := buf.Len()
	zw := flateWriters.Get().(*flate.Writer)
	zw.Reset(buf)
	_, _ = zw.Write(chunk) // bytes.Buffer writes cannot fail
	_ = zw.Close()
	flateWriters.Put(zw)
	return buf.Len() - n
}

// inflateChunk inflates the compressed chunk read from src into dst and
// returns its length. A stream that inflates past len(dst) is rejected
// with errChunkTooLarge (a corrupt stream must not balloon), and so is one
// that does not parse.
func inflateChunk(dst []byte, src io.Reader) (int, error) {
	r := flateReaders.Get().(*inflater)
	defer flateReaders.Put(r)
	r.src.Reset(src)
	if err := r.zr.(flate.Resetter).Reset(r.src, nil); err != nil {
		return 0, fmt.Errorf("resultstore: inflate chunk: %w", err)
	}
	n := 0
	for n < len(dst) {
		m, err := r.zr.Read(dst[n:])
		n += m
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return 0, fmt.Errorf("resultstore: inflate chunk: %w", err)
		}
	}
	// dst is full: the stream must end here.
	var one [1]byte
	switch m, err := r.zr.Read(one[:]); {
	case m > 0:
		return 0, errChunkTooLarge
	case err != io.EOF:
		return 0, fmt.Errorf("resultstore: inflate chunk: %w", err)
	}
	return n, nil
}

// errChunkTooLarge reports a chunk that inflates past the space given to it.
var errChunkTooLarge = errors.New("resultstore: inflated chunk exceeds its space")
