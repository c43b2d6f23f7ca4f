package physical

import (
	"errors"
	"testing"

	"repro/internal/logical"
	"repro/internal/raid"
	"repro/internal/storage"
	"repro/internal/tape"
	"repro/internal/vdev"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// TestImageDumpReadsDegradedRaid plants a persistent latent sector
// error under a known filesystem block and checks the image dump's
// bulk reads come back reconstructed from parity — the dump completes
// with zero damage and the restored image is byte-identical.
func TestImageDumpReadsDegradedRaid(t *testing.T) {
	var disks []raid.Disk
	var vdevs []*vdev.Disk
	for i := 0; i < 4; i++ {
		d := vdev.New(nil, "d", 1024, vdev.DefaultParams())
		disks = append(disks, d)
		vdevs = append(vdevs, d)
	}
	parity := vdev.New(nil, "p", 1024, vdev.DefaultParams())
	g, err := raid.NewGroup(disks, parity)
	if err != nil {
		t.Fatal(err)
	}
	vol, err := raid.NewVolume("v0", g)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := wafl.Mkfs(ctx, vol, nil, wafl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := workload.Generate(ctx, fs, workload.Spec{Seed: 31, Files: 20, DirFanout: 4, MeanFileSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.CreateSnapshot(ctx, "s"); err != nil {
		t.Fatal(err)
	}

	// Fail the member sector under one of the snapshot's file blocks.
	ino, err := fs.ActiveView().Namei(ctx, paths[0])
	if err != nil {
		t.Fatal(err)
	}
	pbn, err := fs.ActiveView().BlockAt(ctx, ino, 0)
	if err != nil {
		t.Fatal(err)
	}
	fd := vdevs[int(pbn)%4].InjectFaults(storage.FaultProfile{})
	fd.FailRead(int(pbn)/4, storage.ErrLatentSector)

	sink := &memSink{}
	stats, err := Dump(ctx, DumpOptions{FS: fs, Vol: vol, SnapName: "s", Sink: sink})
	if err != nil {
		t.Fatalf("dump over degraded raid: %v", err)
	}
	if _, recon := vol.RecoveryStats(); recon < 1 {
		t.Fatalf("reconstructs = %d, want >= 1", recon)
	}

	target := storage.NewMemDevice(vol.NumBlocks())
	if _, err := Restore(ctx, RestoreOptions{Vol: target, Source: sink.source()}); err != nil {
		t.Fatal(err)
	}
	restored, err := wafl.Mount(ctx, target, nil, wafl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sv, _ := fs.SnapshotView("s")
	want, _ := workload.TreeDigest(ctx, sv, "/")
	got, _ := workload.TreeDigest(ctx, restored.ActiveView(), "/")
	if diffs := workload.DiffDigests(want, got); len(diffs) > 0 {
		t.Fatalf("degraded-read image differs: %v (dumped %d blocks)", diffs[0], stats.BlocksDumped)
	}
	if err := restored.MustCheck(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestImageDumpOfflineCheckpointResume: the tape drive dies mid-image-
// dump; the failed Dump returns a block-count checkpoint, a second
// invocation resumes exactly there, and applying the torn stream (in
// salvage mode) followed by the continuation rebuilds the image.
func TestImageDumpOfflineCheckpointResume(t *testing.T) {
	fs, dev := newFS(t, 8192)
	workload.Generate(ctx, fs, workload.Spec{Seed: 32, Files: 30, DirFanout: 6, MeanFileSize: 16 << 10})
	if err := fs.CreateSnapshot(ctx, "s"); err != nil {
		t.Fatal(err)
	}

	drive1 := tape.NewDrive(nil, "t0", tape.DefaultParams())
	drive1.AddCartridges(tape.NewCartridge("a"))
	if err := drive1.Load(nil); err != nil {
		t.Fatal(err)
	}
	// The full image is ~126 blocks / ~10 records; go offline late
	// enough that at least one 32-block checkpoint has been flushed,
	// early enough that the dump cannot finish.
	drive1.InjectFaults(tape.FaultConfig{OfflineAfterRecords: 7})
	stats1, err := Dump(ctx, DumpOptions{
		FS: fs, Vol: dev, SnapName: "s",
		Sink: &logical.DriveSink{Drive: drive1}, CheckpointEvery: 32,
	})
	if !errors.Is(err, tape.ErrOffline) {
		t.Fatalf("dump error = %v, want drive offline", err)
	}
	if stats1.Checkpoint == nil || stats1.Checkpoint.BlocksDone == 0 {
		t.Fatalf("no usable checkpoint from interrupted dump: %+v", stats1.Checkpoint)
	}

	// A resume for a different snapshot generation must refuse.
	wrong := *stats1.Checkpoint
	wrong.Gen++
	if _, err := Dump(ctx, DumpOptions{
		FS: fs, Vol: dev, SnapName: "s", Sink: &memSink{}, Resume: &wrong,
	}); err == nil {
		t.Fatal("resume with mismatched generation accepted")
	}

	drive1.SetOffline(false)
	drive1.Flush(nil)

	drive2 := tape.NewDrive(nil, "t1", tape.DefaultParams())
	drive2.AddCartridges(tape.NewCartridge("b"))
	if err := drive2.Load(nil); err != nil {
		t.Fatal(err)
	}
	stats2, err := Dump(ctx, DumpOptions{
		FS: fs, Vol: dev, SnapName: "s",
		Sink: &logical.DriveSink{Drive: drive2}, CheckpointEvery: 32,
		Resume: stats1.Checkpoint,
	})
	if err != nil {
		t.Fatalf("resumed dump: %v", err)
	}
	drive2.Flush(nil)
	if stats2.BlocksSkipped != stats1.Checkpoint.BlocksDone {
		t.Fatalf("resumed dump skipped %d blocks, checkpoint says %d", stats2.BlocksSkipped, stats1.Checkpoint.BlocksDone)
	}

	// Apply the torn stream, then the continuation.
	target := storage.NewMemDevice(8192)
	drive1.Rewind(nil)
	r1, err := Restore(ctx, RestoreOptions{
		Vol: target, Source: logical.NewDriveSource(drive1, nil, 1), Salvage: true,
	})
	if err != nil {
		t.Fatalf("salvage restore of torn stream: %v", err)
	}
	if !r1.TornTail {
		t.Fatal("torn stream restored without TornTail")
	}
	if r1.Checkpoints == 0 {
		t.Fatal("no checkpoint extents verified in torn stream")
	}
	if r1.BlocksRestored < stats1.Checkpoint.BlocksDone {
		t.Fatalf("torn stream applied %d blocks, checkpoint vouches for %d", r1.BlocksRestored, stats1.Checkpoint.BlocksDone)
	}
	drive2.Rewind(nil)
	if _, err := Restore(ctx, RestoreOptions{
		Vol: target, Source: logical.NewDriveSource(drive2, nil, 1),
	}); err != nil {
		t.Fatalf("restoring continuation stream: %v", err)
	}

	restored, err := wafl.Mount(ctx, target, nil, wafl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sv, _ := fs.SnapshotView("s")
	want, _ := workload.TreeDigest(ctx, sv, "/")
	got, _ := workload.TreeDigest(ctx, restored.ActiveView(), "/")
	if diffs := workload.DiffDigests(want, got); len(diffs) > 0 {
		t.Fatalf("concatenated image restore differs: %v", diffs[0])
	}
	if err := restored.MustCheck(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointedStreamVerifies: checkpoint extents do not disturb a
// normal (complete) stream — restore and verify both accept it and
// count the markers.
func TestCheckpointedStreamVerifies(t *testing.T) {
	fs, dev := newFS(t, 4096)
	fs.WriteFile(ctx, "/blob", make([]byte, 512<<10), 0644)
	if err := fs.CreateSnapshot(ctx, "s"); err != nil {
		t.Fatal(err)
	}
	sink := &memSink{}
	stats, err := Dump(ctx, DumpOptions{FS: fs, Vol: dev, SnapName: "s", Sink: sink, CheckpointEvery: 32})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Checkpoint != nil {
		t.Fatalf("successful dump returned a checkpoint: %+v", stats.Checkpoint)
	}
	check, err := VerifyStream(ctx, sink.source())
	if err != nil {
		t.Fatal(err)
	}
	if check.Checkpoints == 0 {
		t.Fatal("verify saw no checkpoint extents")
	}
	target := storage.NewMemDevice(4096)
	r, err := Restore(ctx, RestoreOptions{Vol: target, Source: sink.source()})
	if err != nil {
		t.Fatal(err)
	}
	if r.Checkpoints != check.Checkpoints {
		t.Fatalf("restore saw %d checkpoints, verify saw %d", r.Checkpoints, check.Checkpoints)
	}
	if _, err := wafl.Mount(ctx, target, nil, wafl.Options{}); err != nil {
		t.Fatal(err)
	}
}
