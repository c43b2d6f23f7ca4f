package dumpfmt

import "testing"

// TestCheckpointDurableAndSkipped checks that Checkpoint flushes the
// partial record immediately (durability) and that Walk skips the
// marker transparently inside a segment run.
func TestCheckpointDurableAndSkipped(t *testing.T) {
	sink := newMemSink(0)
	w, err := NewWriter(sink, "lbl", 1000, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	seg := make([]byte, TPBSize)
	for i := range seg {
		seg[i] = 0xAB
	}
	if err := w.WriteHeader(&Header{Type: TSInode, Inumber: 7, Dinode: DumpInode{Size: 2 * TPBSize}, Count: 2, Addrs: []byte{1, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSegment(seg); err != nil {
		t.Fatal(err)
	}
	flushedBefore := len(sink.volumes[0])
	if err := w.Checkpoint(7); err != nil {
		t.Fatal(err)
	}
	if len(sink.volumes[0]) <= flushedBefore {
		t.Fatal("Checkpoint did not flush the pending partial record")
	}
	if err := w.WriteSegment(seg); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(sink.source())
	h, err := r.NextHeader()
	for err == nil && h.Type != TSEnd {
		// The marker sits between the two segments of inode 7: Walk must
		// deliver both, hopping over it, and it must not reappear as a
		// header afterwards.
		if h.Type == TSCheckpoint {
			t.Fatal("checkpoint leaked out of Walk as a top-level header")
		}
		var segs []walked
		cur := *h
		h, err = r.Walk(&cur, collect(&segs))
		if cur.Type == TSInode {
			if err != nil || len(segs) != 2 {
				t.Fatalf("inode 7: %d segments, %v", len(segs), err)
			}
			for _, s := range segs {
				if s.data[0] != 0xAB {
					t.Fatal("segment bytes corrupted around checkpoint")
				}
			}
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if r.Skipped() != 0 {
		t.Fatalf("resync skipped %d units", r.Skipped())
	}
}
