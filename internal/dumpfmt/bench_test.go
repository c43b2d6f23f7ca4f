package dumpfmt

import "testing"

// nullSink discards records, isolating the Writer's own record path.
type nullSink struct{}

func (nullSink) WriteRecord(data []byte) error { return nil }
func (nullSink) NextVolume() error             { return nil }

// recordWriteStep returns one iteration of the logical dump record
// path — one TS_INODE header plus four 1 KB data segments, the
// steady-state shape of Phase IV writing one 4 KB file block — shared
// by the benchmark that times it and the test that counts its
// allocations.
func recordWriteStep(tb testing.TB) func() {
	w, err := NewWriter(nullSink{}, "bench", 1, 0, 0)
	if err != nil {
		tb.Fatal(err)
	}
	seg := make([]byte, TPBSize)
	for i := range seg {
		seg[i] = byte(i)
	}
	addrs := []byte{1, 1, 1, 1}
	return func() {
		h := Header{Type: TSInode, Inumber: 42, Count: 4, Addrs: addrs,
			Dinode: DumpInode{Mode: 0100644, Size: 4096}}
		if err := w.WriteHeader(&h); err != nil {
			tb.Fatal(err)
		}
		for s := 0; s < 4; s++ {
			if err := w.WriteSegment(seg); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// BenchmarkRecordWrite measures the logical dump record path.
func BenchmarkRecordWrite(b *testing.B) {
	step := recordWriteStep(b)
	b.SetBytes(5 * TPBSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

func TestRecordWriteZeroAlloc(t *testing.T) {
	if n := testing.AllocsPerRun(100, recordWriteStep(t)); n != 0 {
		t.Fatalf("Writer header + 4 segments: %v allocs per run, want 0", n)
	}
}

// TestNextHeaderZeroAlloc pins the Reader's lent header: decoding one
// into the Reader's own, label, hole map and all, allocates nothing
// (three objects per header when each was a fresh Header).
func TestNextHeaderZeroAlloc(t *testing.T) {
	sink := newMemSink(0)
	w, err := NewWriter(sink, "allocs", 1000, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	holes := make([]byte, 300) // a map with no segment present: header after header
	for ino := uint32(10); ino < 300; ino++ {
		if err := w.WriteMapped(TSInode, ino, DumpInode{Mode: 0100644, Size: 300 * TPBSize}, holes, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(sink.source())
	if h, err := r.NextHeader(); err != nil || h.Type != TSTape {
		t.Fatalf("volume header %+v, %v", h, err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if h, err := r.NextHeader(); err != nil || h.Label != "allocs" || len(h.Addrs) != len(holes) {
			t.Fatalf("header %+v, %v", h, err)
		}
	}); n != 0 {
		t.Fatalf("Reader.NextHeader: %v allocs per header, want 0", n)
	}
}
