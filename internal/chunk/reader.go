package chunk

import (
	"fmt"
	"io"

	"repro/internal/dumpfmt"
)

// RecordBytes is the record size the Reader re-blocks restored
// streams into: one dumpfmt blocked record. dumpfmt.Reader truncates
// records to whole 1 KB units, so chunk-sized records (arbitrary
// lengths) cannot be passed through raw; physical restore reassembles
// the byte stream and doesn't care.
const RecordBytes = dumpfmt.NTRec * dumpfmt.TPBSize

// Reader reconstitutes a dedup-encoded stream: manifest refs resolve
// through the index to stored chunks, which are read, decompressed,
// verified against their content hash and re-blocked into tape-sized
// records. It implements stream.Source (and physical's Source shape),
// so either engine's restore consumes it unchanged.
type Reader struct {
	index Lookup
	media Media
	refs  []Ref
	next  int // next ref to fetch

	buf     []byte // chunk bytes pending emission: lent by media or inflate
	off     int    // read offset into buf
	rec     []byte // the record ReadRecord lends, reused by every call
	inflate inflater
}

// NewReader reads back the stream m describes.
func NewReader(index Lookup, media Media, m Manifest) *Reader {
	return &Reader{index: index, media: media, refs: m.Refs, rec: make([]byte, 0, RecordBytes)}
}

// ReadRecord implements stream.Source: the next RecordBytes of the
// stream (final record short), io.EOF at the end. The record is the
// Reader's one record buffer, lent until the next call.
func (r *Reader) ReadRecord() ([]byte, error) {
	rec := r.rec[:0]
	for len(rec) < RecordBytes {
		if r.off == len(r.buf) {
			if r.next == len(r.refs) {
				break
			}
			if err := r.fetch(r.refs[r.next]); err != nil {
				return nil, err
			}
			r.next++
		}
		n := copy(rec[len(rec):RecordBytes], r.buf[r.off:])
		rec = rec[:len(rec)+n]
		r.off += n
	}
	if len(rec) == 0 {
		return nil, io.EOF
	}
	return rec, nil
}

// fetch loads and verifies one chunk into the pending buffer.
func (r *Reader) fetch(ref Ref) error {
	e, ok := r.index.LookupChunk(ref.Hash)
	if !ok {
		return fmt.Errorf("chunk: %s not in index (erased while referenced?)", ref.Hash)
	}
	stored, err := r.media.ReadAt(e.Loc)
	if err != nil {
		return fmt.Errorf("chunk: reading %s from %s@%d: %w", ref.Hash, e.Loc.Volume, e.Loc.Index, err)
	}
	if len(stored) != int(e.StoredLen) {
		return fmt.Errorf("chunk: %s: %d stored bytes, index says %d", ref.Hash, len(stored), e.StoredLen)
	}
	raw := stored
	if e.Compressed {
		if raw, err = r.inflate.inflate(stored, int(e.RawLen)); err != nil {
			return fmt.Errorf("chunk: %s: %w", ref.Hash, err)
		}
	}
	if len(raw) != int(ref.RawLen) {
		return fmt.Errorf("chunk: %s: %d raw bytes, manifest says %d", ref.Hash, len(raw), ref.RawLen)
	}
	// End-to-end integrity: the bytes must hash to the address the
	// manifest asked for, whatever media and index said.
	if Sum(raw) != ref.Hash {
		return fmt.Errorf("chunk: %s: content hash mismatch (corrupt chunk)", ref.Hash)
	}
	r.buf = raw
	r.off = 0
	return nil
}
