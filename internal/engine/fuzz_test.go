package engine_test

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/dumpfmt"
	"repro/internal/engine"
	"repro/internal/stream"
)

// FuzzWalk cuts arbitrary bytes into blocked records and reads them as
// a logical stream, the way a landing set is read back (CheckSet, which
// names the files of the stream for its index) and the way restore
// reads one. Neither may panic; the index may not name more files than
// the stream has headers; and the walk must never report a segment that
// is empty or reaches past its file's size, nor more bytes in all than
// the stream holds — a restore sizes writes and buffers by what it is
// handed.
func FuzzWalk(f *testing.F) {
	// Seed: a small real stream — a map, a directory, a file with a hole
	// and a continuation, a checkpoint — whole and cut short.
	sink := &memSink{failAt: -1}
	w, err := dumpfmt.NewWriter(sink, "fuzz", 100, 0, 0)
	if err != nil {
		f.Fatal(err)
	}
	w.WriteBlob(dumpfmt.TSBits, 2, dumpfmt.DumpInode{Size: 3}, []byte{0xfc, 0, 1})
	w.WriteBlob(dumpfmt.TSInode, 2, dumpfmt.DumpInode{Mode: 040755, Size: 9}, []byte("\x07\x00\x00\x00\x08\x02\x00ab"))
	data := make([]byte, 3*dumpfmt.TPBSize)
	di := dumpfmt.DumpInode{Mode: 0100644, Size: 5*dumpfmt.TPBSize - 7}
	w.WriteMapped(dumpfmt.TSInode, 7, di, []byte{1, 0, 1}, data)
	w.Checkpoint(7)
	w.WriteMapped(dumpfmt.TSAddr, 7, di, []byte{0, 1}, data[:2*dumpfmt.TPBSize-7])
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	var whole []byte
	for _, rec := range sink.recs {
		whole = append(whole, rec...)
	}
	f.Add(whole)
	f.Add(whole[:len(whole)/2])

	f.Fuzz(func(t *testing.T, in []byte) {
		var recs [][]byte
		for rest := in; len(rest) > 0; {
			n := min(len(rest), dumpfmt.NTRec*dumpfmt.TPBSize)
			recs, rest = append(recs, rest[:n]), rest[n:]
		}
		_, _, index := engine.CheckSet(ctx, catalog.DumpSet{Engine: catalog.Logical}, []stream.Source{&memSource{recs: recs}})
		if len(index) > len(in)/dumpfmt.TPBSize {
			t.Fatalf("%d files indexed out of a %d-byte stream", len(index), len(in))
		}

		r := dumpfmt.NewReader(&memSource{recs: recs})
		total := 0
		h, err := r.NextHeader()
		for err == nil && h.Type != dumpfmt.TSEnd {
			size := h.Dinode.Size
			h, err = r.Walk(h, func(off uint64, seg []byte) error {
				if len(seg) == 0 || off+uint64(len(seg)) > size {
					t.Fatalf("segment of %d bytes at offset %d of a %d-byte file", len(seg), off, size)
				}
				total += len(seg)
				return nil
			})
		}
		if total > len(in) {
			t.Fatalf("walk reported %d bytes out of a %d-byte stream", total, len(in))
		}
	})
}
