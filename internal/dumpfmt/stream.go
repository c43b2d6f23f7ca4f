package dumpfmt

import (
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

// Reader consumes a dump stream, un-blocking tape records into 1 KB
// units and decoding headers with resynchronization: a corrupt unit
// where a header was expected is skipped, so damage to one file's
// records does not take down the rest of the restore — the resilience
// property the paper credits logical backup with.
type Reader struct {
	src     stream.Source
	pending [][]byte
	skipped int // corrupt units skipped during resync
}

// NewReader wraps a source of blocked records.
func NewReader(src stream.Source) *Reader { return &Reader{src: src} }

// Skipped returns how many units were discarded during resync.
func (r *Reader) Skipped() int { return r.skipped }

// readUnit returns the next 1 KB unit.
func (r *Reader) readUnit() ([]byte, error) {
	for len(r.pending) == 0 {
		rec, err := r.src.ReadRecord()
		if err != nil {
			return nil, err
		}
		if len(rec)%TPBSize != 0 {
			// A torn record: salvage the whole units.
			rec = rec[:len(rec)/TPBSize*TPBSize]
		}
		for off := 0; off < len(rec); off += TPBSize {
			r.pending = append(r.pending, rec[off:off+TPBSize])
		}
	}
	u := r.pending[0]
	r.pending = r.pending[1:]
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
		return h, nil
	}
}

// ReadSegments reads n data segments following a header. A volume
// change can interpose a TS_TAPE continuation header in the middle of
// a file's data; such units are recognized (magic, checksum and type
// all match) and skipped, as BSD restore does. Corrupt or missing
// trailing segments surface as an error after salvage.
func (r *Reader) ReadSegments(n int) ([][]byte, error) {
	segs := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		unit, err := r.readUnit()
		if err != nil {
			if err == io.EOF {
				return segs, io.ErrUnexpectedEOF
			}
			return segs, err
		}
		if h, err := UnmarshalHeader(unit); err == nil && (h.Type == TSTape || h.Type == TSCheckpoint) {
			i-- // continuation or checkpoint marker, not data
			continue
		}
		segs = append(segs, unit)
	}
	return segs, nil
}
