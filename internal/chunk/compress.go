package chunk

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
)

// Per-chunk compression: deflate at BestSpeed, with the encoder and
// decoder state pooled so the steady-state dump path doesn't rebuild
// a flate window per chunk. Compression is skipped when it doesn't
// pay — already-compressed data (media files, archives) would only
// grow, and the Entry.Compressed bit keeps restore honest.

var flateWriters = sync.Pool{New: func() any {
	w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
	return w
}}

var flateReaders = sync.Pool{New: func() any {
	return flate.NewReader(bytes.NewReader(nil))
}}

// compress returns the deflate encoding of p, built in buf and valid
// until buf's next use, or nil when the encoding would not be smaller
// than p (store raw instead).
func compress(buf *bytes.Buffer, p []byte) []byte {
	buf.Reset()
	buf.Grow(len(p))
	w := flateWriters.Get().(*flate.Writer)
	w.Reset(buf)
	_, werr := w.Write(p)
	cerr := w.Close()
	flateWriters.Put(w)
	if werr != nil || cerr != nil || buf.Len() >= len(p) {
		return nil
	}
	return buf.Bytes()
}

// decompress inflates p into a fresh rawLen-byte buffer, failing on
// short, long or malformed input.
func decompress(p []byte, rawLen int) ([]byte, error) {
	r := flateReaders.Get().(io.ReadCloser)
	defer flateReaders.Put(r)
	if err := r.(flate.Resetter).Reset(bytes.NewReader(p), nil); err != nil {
		return nil, err
	}
	out := make([]byte, rawLen)
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, fmt.Errorf("chunk: inflate: %w", err)
	}
	var one [1]byte
	if n, _ := r.Read(one[:]); n != 0 {
		return nil, fmt.Errorf("chunk: inflate: %d-byte chunk overflows its raw length %d", len(p), rawLen)
	}
	return out, nil
}
