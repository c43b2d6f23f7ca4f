package dumpfmt

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"repro/internal/bufpool"
	"repro/internal/stream"
)

// Writer emits a dump stream: headers and 1 KB segments, blocked into
// NTRec-unit tape records. Headers are marshalled and segments copied
// directly into the pending record buffer (pooled via bufpool), so
// the steady-state record path performs no allocation.
type Writer struct {
	sink   stream.Sink
	label  string
	date   int64
	ddate  int64
	level  int32
	volume int32
	tapea  int64

	rec     *[]byte // pooled backing for buf
	buf     []byte  // pending blocked record
	units   int
	written int64 // total bytes handed to the sink
}

// NewWriter starts a dump stream and writes the initial TS_TAPE
// volume header.
func NewWriter(sink stream.Sink, label string, date, ddate int64, level int32) (*Writer, error) {
	rec := bufpool.Get(NTRec * TPBSize)
	w := &Writer{
		sink:   sink,
		label:  label,
		date:   date,
		ddate:  ddate,
		level:  level,
		volume: 1,
		rec:    rec,
		buf:    (*rec)[:0],
	}
	if err := w.WriteHeader(&Header{Type: TSTape}); err != nil {
		return nil, err
	}
	return w, nil
}

// Written returns the total bytes emitted to the sink so far.
func (w *Writer) Written() int64 { return w.written }

// Tapea returns the current logical record position.
func (w *Writer) Tapea() int64 { return w.tapea }

// zeroUnit pads short segments without a per-unit scratch allocation.
var zeroUnit [TPBSize]byte

// WriteHeader stamps the stream-wide fields into h and emits it,
// marshalling straight into the pending record buffer.
func (w *Writer) WriteHeader(h *Header) error {
	h.Date = w.date
	h.DDate = w.ddate
	h.Level = w.level
	h.Volume = w.volume
	h.Label = w.label
	h.Tapea = w.tapea
	off := len(w.buf)
	w.buf = w.buf[:off+TPBSize]
	if err := h.MarshalInto(w.buf[off : off+TPBSize]); err != nil {
		w.buf = w.buf[:off]
		return err
	}
	return w.unitDone()
}

// WriteSegment emits one data segment (at most 1 KB; shorter segments
// are zero-padded, matching the fixed-unit tape format). The segment
// is copied into the pending record buffer, so the caller may reuse
// seg immediately.
func (w *Writer) WriteSegment(seg []byte) error {
	if len(seg) > TPBSize {
		return fmt.Errorf("dumpfmt: segment of %d bytes", len(seg))
	}
	w.buf = append(w.buf, seg...)
	w.buf = append(w.buf, zeroUnit[len(seg):]...)
	return w.unitDone()
}

// WriteMapped emits one header of type typ for inode ino with hole map
// addrs, then the present segments of buf: segment i of the header
// lives at buf[i*TPBSize:], and the last one is as short as len(buf)
// leaves it. A header with an empty map carries no data.
func (w *Writer) WriteMapped(typ int32, ino uint32, di DumpInode, addrs, buf []byte) error {
	h := Header{Type: typ, Inumber: ino, Dinode: di, Count: int32(len(addrs)), Addrs: addrs}
	if err := w.WriteHeader(&h); err != nil {
		return err
	}
	for i, a := range addrs {
		if a != 1 {
			continue
		}
		lo := min(i*TPBSize, len(buf))
		if err := w.WriteSegment(buf[lo:min(lo+TPBSize, len(buf))]); err != nil {
			return err
		}
	}
	return nil
}

// allPresent is the hole map of a hole-free header.
var allPresent = bytes.Repeat([]byte{1}, MaxSegsPerHeader)

// WriteBlob emits hole-free data (a directory's entries, an inode map)
// as one typ header per MaxSegsPerHeader segments, every one after the
// first a TS_ADDR continuation of the same inode. Empty data still
// takes one (zero) segment.
func (w *Writer) WriteBlob(typ int32, ino uint32, di DumpInode, data []byte) error {
	nseg := max((len(data)+TPBSize-1)/TPBSize, 1)
	for seg := 0; seg < nseg; seg += MaxSegsPerHeader {
		n := min(nseg-seg, MaxSegsPerHeader)
		if err := w.WriteMapped(typ, ino, di, allPresent[:n], data[min(seg*TPBSize, len(data)):]); err != nil {
			return err
		}
		typ = TSAddr
	}
	return nil
}

// unitDone accounts for one finished 1 KB unit and flushes a full
// blocked record.
func (w *Writer) unitDone() error {
	w.units++
	w.tapea++
	if w.units == NTRec {
		return w.flush()
	}
	return nil
}

// flush writes the pending blocked record, handling end-of-media by
// switching volumes and emitting a continuation header first.
func (w *Writer) flush() error {
	if w.units == 0 {
		return nil
	}
	rec := w.buf
	for {
		err := w.sink.WriteRecord(rec)
		if err == nil {
			break
		}
		if !errors.Is(err, stream.ErrEndOfMedia) {
			return err
		}
		// Switch volumes until one takes the continuation header: a
		// fresh cartridge can itself be bad from its very first record,
		// in which case it is abandoned like the full one before it.
		for {
			if err := w.sink.NextVolume(); err != nil {
				return fmt.Errorf("dumpfmt: volume change: %w", err)
			}
			w.volume++
			cont := &Header{Type: TSTape, Date: w.date, DDate: w.ddate,
				Level: w.level, Volume: w.volume, Label: w.label, Tapea: w.tapea}
			contBuf, err := cont.Marshal()
			if err != nil {
				return err
			}
			// The continuation header goes out as its own (short) record.
			cerr := w.sink.WriteRecord(contBuf)
			if cerr == nil {
				w.written += TPBSize
				break
			}
			if !errors.Is(cerr, stream.ErrEndOfMedia) {
				return fmt.Errorf("dumpfmt: writing continuation header: %w", cerr)
			}
		}
	}
	w.written += int64(len(rec))
	w.buf = w.buf[:0]
	w.units = 0
	return nil
}

// Checkpoint emits a TS_CHECKPOINT record declaring that every file
// up to and including inode ino is complete in the stream, then
// flushes the pending partial record so the marker — and everything
// before it — is durably on media. A dump that later aborts can
// restart from the last checkpoint instead of from scratch.
func (w *Writer) Checkpoint(ino uint32) error {
	if err := w.WriteHeader(&Header{Type: TSCheckpoint, Inumber: ino}); err != nil {
		return err
	}
	return w.flush()
}

// Close writes the TS_END record, flushes the final partial record
// and recycles the Writer's record buffer. The Writer must not be
// used after Close.
func (w *Writer) Close() error {
	if err := w.WriteHeader(&Header{Type: TSEnd}); err != nil {
		return err
	}
	if err := w.flush(); err != nil {
		return err
	}
	bufpool.Put(w.rec)
	w.rec, w.buf = nil, nil
	return nil
}

// ErrTorn reports a source that ended before TS_END: what a dump that
// aborted, or a copy that was cut short, leaves behind.
var ErrTorn = fmt.Errorf("dumpfmt: stream ends before TS_END: %w", io.ErrUnexpectedEOF)

// Reader consumes a dump stream, un-blocking tape records into 1 KB
// units and decoding headers with resynchronization: a corrupt unit
// where a header was expected is skipped, so damage to one file's
// records does not take down the rest of the restore — the resilience
// property the paper credits logical backup with.
type Reader struct {
	src     stream.Source
	rec     []byte // the source's current record, lent until its next read
	off     int    // the next unit's offset in rec
	skipped int    // corrupt units skipped during resync
	ended   bool   // TS_END has been returned
	arena   []byte // Walk's scratch: one header's segments, copied out of rec
}

// NewReader wraps a source of blocked records.
func NewReader(src stream.Source) *Reader { return &Reader{src: src} }

// Skipped returns how many units were discarded during resync.
func (r *Reader) Skipped() int { return r.skipped }

// readUnit returns the next 1 KB unit, in place in the source's
// record: it is valid only until the next readUnit. A source that runs
// out before TS_END went by is torn; after it, the end is io.EOF.
func (r *Reader) readUnit() ([]byte, error) {
	// A torn record's trailing partial unit is never reached: only its
	// whole units are salvaged.
	for r.off+TPBSize > len(r.rec) {
		rec, err := r.src.ReadRecord()
		if err == io.EOF && !r.ended {
			return nil, ErrTorn
		}
		if err != nil {
			return nil, err
		}
		r.rec, r.off = rec, 0
	}
	u := r.rec[r.off : r.off+TPBSize]
	r.off += TPBSize
	return u, nil
}

// NextHeader returns the next valid header, skipping corrupt units and
// transparently passing volume-continuation TS_TAPE headers through to
// the caller (they carry no payload).
func (r *Reader) NextHeader() (*Header, error) {
	for {
		unit, err := r.readUnit()
		if err != nil {
			return nil, err
		}
		h, err := UnmarshalHeader(unit)
		if err != nil {
			r.skipped++
			continue
		}
		r.ended = r.ended || h.Type == TSEnd
		return h, nil
	}
}

// isMarker reports a header that carries nothing of any file and can
// land anywhere in one: the TS_TAPE a volume change interposes (as BSD
// restore expects) or a TS_CHECKPOINT.
func isMarker(h *Header) bool { return h.Type == TSTape || h.Type == TSCheckpoint }

// Walk reads the records h opens — a file, a directory or an inode map
// (TS_INODE, TS_BITS, TS_CLRI) — and returns the first header that
// belongs to something else. It hands visit each present segment with
// its byte offset in the file, in stream order, cut to Dinode.Size
// (nothing at or past the size is reported); follows the TS_ADDR
// continuations of the same inode; and steps over markers wherever
// they fall. The segment is valid only during the call. A nil visit
// reads the records and reports nothing, which is also all that can be
// done with a TS_ADDR whose TS_INODE was lost: it does not say where in
// the file its map begins.
//
// A source that ends inside the file returns ErrTorn naming the inode,
// after the segments before the tear have been visited; one that ends
// behind its last record returns ErrTorn bare.
func (r *Reader) Walk(h *Header, visit func(off uint64, seg []byte) error) (*Header, error) {
	size := h.Dinode.Size
	base := uint64(0) // segments the headers before cur describe
	for cur := h; ; {
		// A header's segments are all read before the first is visited,
		// so the tape is read in runs, not a unit between filesystem
		// operations: the virtual clock sees the difference.
		readErr := r.readSegments(cur.Addrs)
		n := 0
		for i, a := range cur.Addrs {
			if a != 1 {
				continue
			}
			if n*TPBSize == len(r.arena) {
				break
			}
			unit, off := r.arena[n*TPBSize:(n+1)*TPBSize], (base+uint64(i))*TPBSize
			n++
			if visit == nil || off >= size {
				continue
			}
			if err := visit(off, unit[:min(TPBSize, size-off)]); err != nil {
				return nil, err
			}
		}
		if readErr == ErrTorn {
			readErr = fmt.Errorf("inode %d torn: %w", h.Inumber, readErr)
		}
		if readErr != nil {
			return nil, readErr
		}
		base += uint64(len(cur.Addrs))
		next, err := r.NextHeader()
		for err == nil && isMarker(next) {
			next, err = r.NextHeader()
		}
		if err != nil || next.Type != TSAddr || next.Inumber != h.Inumber {
			return next, err
		}
		cur = next
	}
}

// readSegments copies the data units hole map addrs says follow its
// header into r.arena, one after another, skipping markers; on an error
// r.arena holds the ones before it. The copy is what lets the units
// outlive the source records they span.
func (r *Reader) readSegments(addrs []byte) error {
	r.arena = r.arena[:0]
	for _, a := range addrs {
		for a == 1 {
			unit, err := r.readUnit()
			if err != nil {
				return err
			}
			if h, err := UnmarshalHeader(unit); err != nil || !isMarker(h) {
				r.arena = append(r.arena, unit...)
				break
			}
		}
	}
	return nil
}
