package catalog

import (
	"fmt"
	"testing"
)

// buildJournal records n dump sets (with indexes and an expiry mixed
// in) and returns the journal bytes plus the byte offset where the
// final record's frame begins.
func buildJournal(t *testing.T, n int) (buf []byte, lastFrame int) {
	t.Helper()
	store := &MemStore{}
	c, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n-1; i++ {
		id, err := c.AppendDumpSet(sampleSet(Logical, "vol0", int32(i%10), int64(100*(i+1)), 0, 0, 0,
			MediaRef{Volume: fmt.Sprintf("t%d", i)}))
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := c.AppendFileIndex(id, []FileIndexEntry{{Path: fmt.Sprintf("f%d", i), Ino: uint32(i + 4), Unit: int64(i)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Expire(1, 999); err != nil {
		t.Fatal(err)
	}
	// Integrity records are acknowledged history too: damage, repair
	// and quarantine must replay like everything else.
	if err := c.MarkDamaged(2, 1000, "scrub: unreadable record"); err != nil {
		t.Fatal(err)
	}
	appendRepaired(t, c, 2, 1001)
	if err := c.MarkDamaged(3, 1002, "scrub: stream corrupt"); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendMediaEvent(MediaEvent{Kind: MediaQuarantine, Volume: "t2", Pool: "main", Time: 1003}); err != nil {
		t.Fatal(err)
	}
	// Chunk-layer records are acknowledged history too: index batches,
	// a manifest, and a sweep's erase record all sit mid-journal so the
	// every-byte corruption sweep covers kinds 7-9.
	if err := c.CommitChunks(sampleChunkEntries("t0", 11)); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendManifest(2, sampleManifest("t0", 11)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SweepChunks(nil); err != nil {
		t.Fatal(err)
	}
	lastFrame = len(store.Buf)
	if _, err := c.AppendDumpSet(sampleSet(Image, "vol0", -1, 5000, 0, 42, 0, MediaRef{Volume: "last"})); err != nil {
		t.Fatal(err)
	}
	return store.Buf, lastFrame
}

// TestRecoveryTruncatedTail is the satellite property test: a crash
// that tears the final record at ANY byte offset must lose only that
// record — every dump set whose append was acknowledged survives
// recovery intact.
func TestRecoveryTruncatedTail(t *testing.T) {
	const sets = 6
	buf, lastFrame := buildJournal(t, sets)

	for cut := lastFrame; cut < len(buf); cut++ {
		torn := make([]byte, cut)
		copy(torn, buf)
		store := &MemStore{Buf: torn}
		c, err := Open(store)
		if err != nil {
			t.Fatalf("cut at %d: recovery failed: %v", cut, err)
		}
		if got := len(c.Sets()); got != sets-1 {
			t.Fatalf("cut at %d: recovered %d sets, want %d", cut, got, sets-1)
		}
		if cut > lastFrame && c.TornBytes == 0 {
			t.Fatalf("cut at %d: torn tail not reported", cut)
		}
		if int64(len(store.Buf)) != int64(lastFrame) {
			t.Fatalf("cut at %d: store not truncated to valid prefix (%d != %d)", cut, len(store.Buf), lastFrame)
		}
		// The catalog must accept new appends after recovery, and the
		// new set must get the torn set's never-acknowledged ID.
		id, err := c.AppendDumpSet(sampleSet(Logical, "vol0", 9, 6000, 0, 0, 0))
		if err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		if id != sets {
			t.Fatalf("cut at %d: post-recovery id = %d, want %d", cut, id, sets)
		}
		// And a second replay of the repaired journal is clean.
		c2, err := Open(&MemStore{Buf: store.Buf})
		if err != nil || c2.TornBytes != 0 {
			t.Fatalf("cut at %d: re-open after repair: %v (torn %d)", cut, err, c2.TornBytes)
		}
	}
}

// TestRecoveryCorruptTail flips each byte of the final record in turn
// (a misdirected write rather than a short one); the frame CRC or
// magic must reject the record, and everything before it survives.
func TestRecoveryCorruptTail(t *testing.T) {
	const sets = 6
	buf, lastFrame := buildJournal(t, sets)

	for off := lastFrame; off < len(buf); off++ {
		bad := make([]byte, len(buf))
		copy(bad, buf)
		bad[off] ^= 0xff
		store := &MemStore{Buf: bad}
		c, err := Open(store)
		if err != nil {
			t.Fatalf("corrupt at %d: recovery failed: %v", off, err)
		}
		if got := len(c.Sets()); got != sets-1 {
			t.Fatalf("corrupt at %d: recovered %d sets, want %d", off, got, sets-1)
		}
		if c.TornBytes == 0 {
			t.Fatalf("corrupt at %d: corruption not reported", off)
		}
		if int64(len(store.Buf)) != int64(lastFrame) {
			t.Fatalf("corrupt at %d: store not truncated to valid prefix", off)
		}
	}
}

// TestRecoveryMidJournalCorruption: an intact frame with a payload the
// decoder rejects is damage to acknowledged history, and Open must
// refuse rather than silently drop it.
func TestRecoveryMidJournalCorruption(t *testing.T) {
	store := &MemStore{}
	c, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AppendDumpSet(sampleSet(Logical, "vol0", 0, 100, 0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	// Hand-frame an undecodable payload (unknown kind) with a valid CRC.
	store.Buf = append(store.Buf, frame([]byte{0xee, 1, 2, 3})...)
	if _, err := Open(&MemStore{Buf: store.Buf}); err == nil {
		t.Fatal("Open accepted an intact frame with a garbage payload")
	}

	// A frame that fails its CRC with intact frames beyond it is not a
	// torn tail either: truncating there would discard acknowledged
	// history, so Open must refuse. Flip one byte in every frame but
	// the last and demand ErrCorrupt each time.
	buf, lastFrame := buildJournal(t, 6)
	for off := 0; off < lastFrame; off++ {
		bad := make([]byte, len(buf))
		copy(bad, buf)
		bad[off] ^= 0xff
		if _, err := Open(&MemStore{Buf: bad}); err == nil {
			t.Fatalf("corrupt at %d: Open truncated away acknowledged history", off)
		}
	}
}

// TestRecoveryEmptyAndHeaderOnly covers the degenerate tails.
func TestRecoveryEmptyAndHeaderOnly(t *testing.T) {
	c, err := Open(&MemStore{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Sets()) != 0 || c.TornBytes != 0 {
		t.Fatal("empty journal misread")
	}
	// A journal holding just a few garbage bytes is all tail.
	store := &MemStore{Buf: []byte{1, 2, 3}}
	c, err = Open(store)
	if err != nil {
		t.Fatal(err)
	}
	if c.TornBytes != 3 || len(store.Buf) != 0 {
		t.Fatalf("garbage-only journal: torn %d, len %d", c.TornBytes, len(store.Buf))
	}
}
