package logical

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/tape"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// TestDamageReportExactHoleMapping injects one latent sector error
// under a known file block and checks the dump's damage report names
// exactly that block — and that the restored tree is byte-identical
// everywhere else, with zeros in the hole.
func TestDamageReportExactHoleMapping(t *testing.T) {
	view, ino, content := damagedBlockFS(t)
	const badFbn = damagedFbn

	drive := newTape(t, 0, 1)
	stats, err := Dump(ctx, DumpOptions{
		View: view, Sink: &DriveSink{Drive: drive}, Label: "dmg", ReadAhead: 8,
	})
	if err != nil {
		t.Fatalf("dump should survive a data-block fault, got %v", err)
	}
	if len(stats.Damaged) != 1 {
		t.Fatalf("damage report: %+v, want exactly one block", stats.Damaged)
	}
	d := stats.Damaged[0]
	if d.Ino != ino || d.Fbn != badFbn {
		t.Fatalf("damage report names ino %d fbn %d, want ino %d fbn %d", d.Ino, d.Fbn, ino, badFbn)
	}

	dst := newFS(t, 8192)
	restoreFromTape(t, dst, drive)
	rino, err := dst.ActiveView().Namei(ctx, "/d/victim.dat")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(content))
	if _, err := dst.ActiveView().ReadAt(ctx, rino, 0, got); err != nil {
		t.Fatal(err)
	}
	zero := make([]byte, wafl.BlockSize)
	for fbn := 0; fbn*wafl.BlockSize < len(content); fbn++ {
		blk := got[fbn*wafl.BlockSize : (fbn+1)*wafl.BlockSize]
		if fbn == badFbn {
			if !bytes.Equal(blk, zero) {
				t.Fatalf("damaged fbn %d restored as non-zero", fbn)
			}
		} else if !bytes.Equal(blk, content[fbn*wafl.BlockSize:(fbn+1)*wafl.BlockSize]) {
			t.Fatalf("undamaged fbn %d corrupted by salvage", fbn)
		}
	}
	bino, err := dst.ActiveView().Namei(ctx, "/d/bystander.dat")
	if err != nil {
		t.Fatal(err)
	}
	bgot := make([]byte, 20<<10)
	if _, err := dst.ActiveView().ReadAt(ctx, bino, 0, bgot); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bgot, content[:20<<10]) {
		t.Fatal("bystander file corrupted")
	}
}

// TestTransientMediaErrorRetriedBySink: a transient tape write error is
// absorbed by the sink's retry loop; the dump neither fails nor
// switches cartridges, and the stream restores intact.
func TestTransientMediaErrorRetriedBySink(t *testing.T) {
	src := newFS(t, 8192)
	workload.Generate(ctx, src, workload.Spec{Seed: 21, Files: 12, DirFanout: 4, MeanFileSize: 8 << 10})
	src.CreateSnapshot(ctx, "s")
	sv, _ := src.SnapshotView("s")

	drive := newTape(t, 0, 1)
	drive.FailNextWrite(true)
	sink := &DriveSink{Drive: drive}
	if _, err := Dump(ctx, DumpOptions{View: sv, Sink: sink, Label: "tr"}); err != nil {
		t.Fatalf("dump: %v", err)
	}
	retries, swaps := sink.MediaStats()
	if retries != 1 || swaps != 0 {
		t.Fatalf("media stats: %d retries, %d swaps; want 1, 0", retries, swaps)
	}

	dst := newFS(t, 8192)
	restoreFromTape(t, dst, drive)
	assertTreesEqual(t, digests(t, sv, "/"), digests(t, dst.ActiveView(), "/"))
}

// TestPersistentMediaErrorSwitchesCartridge: a persistent media error
// condemns the cartridge; the sink reports end-of-media and the stream
// writer moves the whole record to the next volume, losing nothing.
func TestPersistentMediaErrorSwitchesCartridge(t *testing.T) {
	src := newFS(t, 8192)
	workload.Generate(ctx, src, workload.Spec{Seed: 22, Files: 12, DirFanout: 4, MeanFileSize: 8 << 10})
	src.CreateSnapshot(ctx, "s")
	sv, _ := src.SnapshotView("s")

	drive := newTape(t, 0, 3)
	drive.FailNextWrite(false) // first record write damages cartridge "a"
	sink := &DriveSink{Drive: drive}
	if _, err := Dump(ctx, DumpOptions{View: sv, Sink: sink, Label: "pm"}); err != nil {
		t.Fatalf("dump: %v", err)
	}
	if _, swaps := sink.MediaStats(); swaps != 1 {
		t.Fatalf("swaps = %d, want 1", swaps)
	}
	drive.Flush(nil)

	// Cycle back to the (empty, damaged) first cartridge; the source
	// skips it and the stream reads off the replacement.
	for drive.Loaded().Label != "a" {
		if err := drive.Load(nil); err != nil {
			t.Fatal(err)
		}
	}
	drive.Rewind(nil)
	dst := newFS(t, 8192)
	stats, err := Restore(ctx, RestoreOptions{
		FS: dst, Source: NewDriveSource(drive, nil, 3), KernelIntegrated: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FilesRestored == 0 {
		t.Fatal("nothing restored")
	}
	assertTreesEqual(t, digests(t, sv, "/"), digests(t, dst.ActiveView(), "/"))
}

// TestFreshCartridgeMediaErrorAlsoSwitches is the end-of-media corner
// the issue calls out: the volume fills, and the very first write on
// the replacement cartridge fails too. The writer must keep switching
// until a volume takes the continuation header.
func TestFreshCartridgeMediaErrorAlsoSwitches(t *testing.T) {
	// Pre-damage cartridge "b" (the write fails before any data lands,
	// so it stays empty).
	bad := tape.NewCartridge("b")
	scratch := tape.NewDrive(nil, "scratch", tape.DefaultParams())
	scratch.AddCartridges(bad)
	if err := scratch.Load(nil); err != nil {
		t.Fatal(err)
	}
	scratch.FailNextWrite(false)
	if err := scratch.WriteRecord(nil, []byte("x")); err == nil {
		t.Fatal("damaging write unexpectedly succeeded")
	}
	if !bad.Damaged() || bad.Records() != 0 {
		t.Fatalf("cartridge b: damaged=%v records=%d", bad.Damaged(), bad.Records())
	}

	src := newFS(t, 8192)
	workload.Generate(ctx, src, workload.Spec{Seed: 23, Files: 15, DirFanout: 6, MeanFileSize: 24 << 10})
	src.CreateSnapshot(ctx, "s")
	sv, _ := src.SnapshotView("s")

	p := tape.DefaultParams()
	p.Capacity = 96 << 10 // force spanning off cartridge "a"
	drive := tape.NewDrive(nil, "t0", p)
	drive.AddCartridges(tape.NewCartridge("a"), bad, tape.NewCartridge("c"), tape.NewCartridge("d"))
	if err := drive.Load(nil); err != nil {
		t.Fatal(err)
	}
	sink := &DriveSink{Drive: drive}
	stats, err := Dump(ctx, DumpOptions{View: sv, Sink: sink, Label: "eom", ReadAhead: 8})
	if err != nil {
		t.Fatalf("dump: %v", err)
	}
	if _, swaps := sink.MediaStats(); swaps != 1 {
		t.Fatalf("swaps = %d, want 1 (cartridge b abandoned)", swaps)
	}
	drive.Flush(nil)

	for drive.Loaded().Label != "a" {
		if err := drive.Load(nil); err != nil {
			t.Fatal(err)
		}
	}
	drive.Rewind(nil)
	dst := newFS(t, 8192)
	rstats, err := Restore(ctx, RestoreOptions{
		FS: dst, Source: NewDriveSource(drive, nil, 4), KernelIntegrated: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rstats.FilesRestored != stats.FilesDumped {
		t.Fatalf("restored %d files, dumped %d", rstats.FilesRestored, stats.FilesDumped)
	}
	assertTreesEqual(t, digests(t, sv, "/"), digests(t, dst.ActiveView(), "/"))
}

// TestOfflineCheckpointResume drives the whole restart story: the
// drive drops offline mid-dump, the failed Dump hands back a
// checkpoint, a re-invocation resumes past the files already on tape,
// and restoring both streams in order rebuilds the exact tree.
func TestOfflineCheckpointResume(t *testing.T) {
	src := newFS(t, 16384)
	workload.Generate(ctx, src, workload.Spec{Seed: 24, Files: 30, DirFanout: 6, MeanFileSize: 16 << 10})
	src.CreateSnapshot(ctx, "s")
	sv, _ := src.SnapshotView("s")

	drive1 := newTape(t, 0, 1)
	// The full stream is ~80 records; dying at 60 lands well into
	// Phase IV with several checkpoints already durable.
	drive1.InjectFaults(tape.FaultConfig{OfflineAfterRecords: 60})
	stats1, err := Dump(ctx, DumpOptions{
		View: sv, Sink: &DriveSink{Drive: drive1}, Label: "ckpt",
		ReadAhead: 8, CheckpointEvery: 2,
	})
	if !errors.Is(err, tape.ErrOffline) {
		t.Fatalf("dump error = %v, want drive offline", err)
	}
	if stats1.Checkpoint == nil || stats1.Checkpoint.LastIno == 0 {
		t.Fatalf("no usable checkpoint from interrupted dump: %+v", stats1.Checkpoint)
	}
	if stats1.FilesDumped == 0 {
		t.Fatal("offline hit before any file was dumped; raise OfflineAfterRecords")
	}

	// The drive comes back; what reached tape before the outage is
	// intact and readable.
	drive1.SetOffline(false)
	drive1.Flush(nil)

	// Resume onto a fresh drive. Phase IV must skip the files the
	// checkpoint vouches for.
	drive2 := newTape(t, 0, 1)
	stats2, err := Dump(ctx, DumpOptions{
		View: sv, Sink: &DriveSink{Drive: drive2}, Label: "ckpt",
		ReadAhead: 8, CheckpointEvery: 2, Resume: stats1.Checkpoint,
	})
	if err != nil {
		t.Fatalf("resumed dump: %v", err)
	}
	drive2.Flush(nil)
	if stats2.FilesSkipped == 0 {
		t.Fatal("resumed dump skipped nothing")
	}
	if stats2.Date != stats1.Date {
		t.Fatalf("resumed dump date %d != original %d", stats2.Date, stats1.Date)
	}

	// Restore stream 1 (torn tail tolerated), then stream 2 on top.
	dst := newFS(t, 16384)
	drive1.Rewind(nil)
	if _, err := Restore(ctx, RestoreOptions{
		FS: dst, Source: NewDriveSource(drive1, nil, 1),
		KernelIntegrated: true, Salvage: true,
	}); err != nil {
		t.Fatalf("restoring interrupted stream: %v", err)
	}
	drive2.Rewind(nil)
	if _, err := Restore(ctx, RestoreOptions{
		FS: dst, Source: NewDriveSource(drive2, nil, 1),
		KernelIntegrated: true,
	}); err != nil {
		t.Fatalf("restoring continuation stream: %v", err)
	}
	assertTreesEqual(t, digests(t, sv, "/"), digests(t, dst.ActiveView(), "/"))
	if err := dst.MustCheck(ctx); err != nil {
		t.Fatal(err)
	}
}

// cancelAfterSink cancels a context after n records reach the drive.
type cancelAfterSink struct {
	inner  *DriveSink
	n      int
	cancel context.CancelFunc
}

func (s *cancelAfterSink) WriteRecord(data []byte) error {
	if s.n--; s.n == 0 {
		s.cancel()
	}
	return s.inner.WriteRecord(data)
}

func (s *cancelAfterSink) NextVolume() error { return s.inner.NextVolume() }

// TestCancelMidDumpLeaksNoGoroutines: cancelling the context mid-dump
// returns promptly with the cancellation error plus a checkpoint, and
// the engine's goroutine count settles back to the baseline.
func TestCancelMidDumpLeaksNoGoroutines(t *testing.T) {
	src := newFS(t, 16384)
	workload.Generate(ctx, src, workload.Spec{Seed: 25, Files: 30, DirFanout: 6, MeanFileSize: 16 << 10})
	src.CreateSnapshot(ctx, "s")
	sv, _ := src.SnapshotView("s")

	before := runtime.NumGoroutine()
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	drive := newTape(t, 0, 1)
	sink := &cancelAfterSink{inner: &DriveSink{Drive: drive}, n: 20, cancel: cancel}
	stats, err := Dump(cctx, DumpOptions{
		View: sv, Sink: sink, Label: "cancel", ReadAhead: 8, CheckpointEvery: 2,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("dump error = %v, want context.Canceled", err)
	}
	if stats == nil || stats.Checkpoint == nil {
		t.Fatal("cancelled dump returned no checkpoint")
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines: %d before dump, %d after cancel", before, n)
	}
}
