package logical

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/dumpfmt"
	"repro/internal/wafl"
)

// Files larger than MaxSegsPerHeader segments (512 KB) spill into
// TS_ADDR continuation headers — the same mechanism BSD dump uses.
// These tests exercise that path, including holes that span the
// continuation boundary.

func TestLargeFileSpansContinuationHeaders(t *testing.T) {
	src := newFS(t, 8192)
	data := make([]byte, 1536<<10) // 1.5 MB = 3 headers' worth
	rand.New(rand.NewSource(51)).Read(data)
	src.WriteFile(ctx, "/big.bin", data, 0644)
	src.CreateSnapshot(ctx, "s")
	sv, _ := src.SnapshotView("s")
	drive := newTape(t, 0, 1)
	dumpToTape(t, sv, drive, 0, nil)

	// The stream must contain TS_ADDR records for this file (a header
	// scan alone resyncs over the data units between them)...
	drive.Rewind(nil)
	r := dumpfmt.NewReader(NewDriveSource(drive, nil, 0))
	addrs := 0
	for {
		h, err := r.NextHeader()
		if err != nil || h.Type == dumpfmt.TSEnd {
			break
		}
		if h.Type == dumpfmt.TSAddr {
			addrs++
		}
	}
	if addrs < 2 {
		t.Fatalf("1.5 MB file produced %d TS_ADDR records, want >= 2", addrs)
	}
	// ...and one walk from its TS_INODE must run through all of them.
	drive.Rewind(nil)
	r = dumpfmt.NewReader(NewDriveSource(drive, nil, 0))
	h, err := r.NextHeader()
	for err == nil && (h.Type != dumpfmt.TSInode || wafl.IsDir(h.Dinode.Mode)) {
		h, err = r.Walk(h, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	var walked []byte
	end, err := r.Walk(h, func(off uint64, seg []byte) error {
		if off != uint64(len(walked)) {
			t.Fatalf("segment at offset %d after %d bytes", off, len(walked))
		}
		walked = append(walked, seg...)
		return nil
	})
	if err != nil || end.Type != dumpfmt.TSEnd || !bytes.Equal(walked, data) {
		t.Fatalf("walk: %d of %d bytes, then %+v, %v", len(walked), len(data), end, err)
	}

	dst := newFS(t, 8192)
	restoreFromTape(t, dst, drive)
	got, err := dst.ActiveView().ReadFile(ctx, "/big.bin")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("large file corrupted through continuations: %v", err)
	}
}

func TestLargeSparseFileAcrossContinuations(t *testing.T) {
	src := newFS(t, 8192)
	ino, err := src.Create(ctx, wafl.RootIno, "swiss.bin", 0644, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Data islands at 0, straddling the 512-segment header boundary
	// from just below, just above it, and far out; holes everywhere
	// else. Offsets are block-disjoint so the islands don't overlap.
	islands := []uint64{0, 508 * 1024, 516 * 1024, 1800 * 1024}
	payload := map[uint64][]byte{}
	for i, off := range islands {
		data := bytes.Repeat([]byte{byte(i + 1)}, 4096)
		if err := src.Write(ctx, ino, off, data); err != nil {
			t.Fatal(err)
		}
		payload[off] = data
	}
	src.CreateSnapshot(ctx, "s")
	sv, _ := src.SnapshotView("s")
	drive := newTape(t, 0, 1)
	stats := dumpToTape(t, sv, drive, 0, nil)
	// Most of the ~1.8 MB is holes: the dump must stay small.
	if stats.BytesWritten > 200<<10 {
		t.Fatalf("sparse dump wrote %d bytes; holes not elided across continuations", stats.BytesWritten)
	}

	dst := newFS(t, 8192)
	restoreFromTape(t, dst, drive)
	dIno, err := dst.ActiveView().Namei(ctx, "/swiss.bin")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	for off, want := range payload {
		if _, err := dst.ActiveView().ReadAt(ctx, dIno, off, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("island at %d corrupted", off)
		}
	}
	// A hole region must read as zeros and stay physically sparse.
	if _, err := dst.ActiveView().ReadAt(ctx, dIno, 1000*1024, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("hole read non-zero after restore")
		}
	}
	dst.CP(ctx)
	pbn, err := dst.ActiveView().BlockAt(ctx, dIno, 250) // ~1 MB in
	if err != nil {
		t.Fatal(err)
	}
	if pbn != 0 {
		t.Fatal("restored file lost a hole spanning the continuation boundary")
	}
}

func TestThreeLevelIncrementalChain(t *testing.T) {
	src := newFS(t, 16384)
	dates := NewDumpDates()
	tape0, tape1, tape2 := newTape(t, 0, 1), newTape(t, 0, 1), newTape(t, 0, 1)

	// Level 0.
	src.WriteFile(ctx, "/base/a.txt", []byte("a0"), 0644)
	src.WriteFile(ctx, "/base/b.txt", []byte("b0"), 0644)
	src.CreateSnapshot(ctx, "l0")
	sv, _ := src.SnapshotView("l0")
	dumpToTape(t, sv, tape0, 0, dates)

	// Level 1: modify a, add c.
	src.WriteFile(ctx, "/base/a.txt", []byte("a1 modified"), 0644)
	src.WriteFile(ctx, "/base/c.txt", []byte("c1 new"), 0644)
	src.CreateSnapshot(ctx, "l1")
	sv, _ = src.SnapshotView("l1")
	dumpToTape(t, sv, tape1, 1, dates)

	// Level 2: delete b, modify c.
	src.RemovePath(ctx, "/base/b.txt")
	src.WriteFile(ctx, "/base/c.txt", []byte("c2 again"), 0644)
	src.CreateSnapshot(ctx, "l2")
	sv, _ = src.SnapshotView("l2")
	s2 := dumpToTape(t, sv, tape2, 2, dates)
	if s2.BaseDate == 0 {
		t.Fatal("level 2 has no base")
	}

	// Replay the chain.
	dst := newFS(t, 16384)
	restoreFromTape(t, dst, tape0)
	restoreFromTape(t, dst, tape1, func(o *RestoreOptions) { o.SyncDeletes = true })
	restoreFromTape(t, dst, tape2, func(o *RestoreOptions) { o.SyncDeletes = true })

	assertTreesEqual(t, digests(t, sv, "/"), digests(t, dst.ActiveView(), "/"))
	if err := dst.MustCheck(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalAfterRestoreRoundTripsTwice(t *testing.T) {
	// Applying the same incremental twice must be idempotent (restore
	// is restartable after a crash, per the paper's footnote 2).
	src := newFS(t, 8192)
	dates := NewDumpDates()
	src.WriteFile(ctx, "/f", []byte("v0"), 0644)
	src.CreateSnapshot(ctx, "l0")
	sv, _ := src.SnapshotView("l0")
	tape0 := newTape(t, 0, 1)
	dumpToTape(t, sv, tape0, 0, dates)
	src.WriteFile(ctx, "/f", []byte("v1"), 0644)
	src.CreateSnapshot(ctx, "l1")
	sv1, _ := src.SnapshotView("l1")
	tape1 := newTape(t, 0, 1)
	dumpToTape(t, sv1, tape1, 1, dates)

	dst := newFS(t, 8192)
	restoreFromTape(t, dst, tape0)
	restoreFromTape(t, dst, tape1, func(o *RestoreOptions) { o.SyncDeletes = true })
	restoreFromTape(t, dst, tape1, func(o *RestoreOptions) { o.SyncDeletes = true })
	assertTreesEqual(t, digests(t, sv1, "/"), digests(t, dst.ActiveView(), "/"))
}
