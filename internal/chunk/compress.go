package chunk

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"slices"
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

// inflater decompresses chunks into one buffer it reuses, so a
// restore's steady state allocates nothing per chunk.
type inflater struct {
	br  bytes.Reader
	out []byte
	one [1]byte // the overflow probe
}

// inflate decompresses p, which must inflate to exactly rawLen bytes,
// failing on short, long or malformed input. The result is valid until
// the next inflate.
func (f *inflater) inflate(p []byte, rawLen int) ([]byte, error) {
	r := flateReaders.Get().(io.ReadCloser)
	defer flateReaders.Put(r)
	f.br.Reset(p)
	if err := r.(flate.Resetter).Reset(&f.br, nil); err != nil {
		return nil, err
	}
	f.out = slices.Grow(f.out[:0], rawLen)[:rawLen]
	if _, err := io.ReadFull(r, f.out); err != nil {
		return nil, fmt.Errorf("chunk: inflate: %w", err)
	}
	if n, _ := r.Read(f.one[:]); n != 0 {
		return nil, fmt.Errorf("chunk: inflate: %d-byte chunk overflows its raw length %d", len(p), rawLen)
	}
	return f.out, nil
}
