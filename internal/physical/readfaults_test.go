package physical

import (
	"errors"
	"testing"

	"repro/internal/logical"
	"repro/internal/storage"
	"repro/internal/tape"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// The restore-side read path shares logical.DriveSource, so image
// verify and salvage restores exercise the same bounded
// retry-with-backoff as the dumps that wrote the tape.

func imageOnTape(t *testing.T) (*wafl.FS, *storage.MemDevice, *tape.Drive) {
	t.Helper()
	fs, dev := newFS(t, 4096)
	workload.Generate(ctx, fs, workload.Spec{Seed: 71, Files: 10, DirFanout: 3, MeanFileSize: 16 << 10})
	if err := fs.CreateSnapshot(ctx, "s"); err != nil {
		t.Fatal(err)
	}
	drive := tape.NewDrive(nil, "t0", tape.DefaultParams())
	drive.AddCartridges(tape.NewCartridge("a"))
	if err := drive.Load(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Dump(ctx, DumpOptions{
		FS: fs, Vol: dev, SnapName: "s",
		Sink: &logical.DriveSink{Drive: drive},
	}); err != nil {
		t.Fatal(err)
	}
	drive.Flush(nil)
	drive.Rewind(nil)
	return fs, dev, drive
}

// TestImageVerifyRetriesTransientReads: VerifyStream over a drive whose
// every read fault is transient completes clean, absorbed by the
// source's retry policy.
func TestImageVerifyRetriesTransientReads(t *testing.T) {
	_, _, drive := imageOnTape(t)
	drive.InjectFaults(tape.FaultConfig{Seed: 72, ReadFault: 0.2, ReadTransient: 1})
	src := logical.NewDriveSource(drive, nil, 1)
	chk, err := VerifyStream(ctx, src)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if chk.Extents == 0 || chk.BlockCount == 0 {
		t.Fatalf("verify saw an empty stream: %+v", chk)
	}
	if retries, _ := src.ReadStats(); retries == 0 {
		t.Fatal("no transient faults fired during verify")
	}
}

// TestImageSalvageRetriesTransientReads: a Salvage restore runs the
// same retry policy as a normal restore — transient read faults are
// absorbed, the stream completes with its trailer, and the root is
// installed, so the restored volume is byte-identical.
func TestImageSalvageRetriesTransientReads(t *testing.T) {
	fs, dev, drive := imageOnTape(t)
	drive.InjectFaults(tape.FaultConfig{Seed: 73, ReadFault: 0.4, ReadTransient: 1})
	drive.FailNextRead(true) // at least one marginal read, whatever the draws do
	src := logical.NewDriveSource(drive, nil, 1)
	target := storage.NewMemDevice(dev.NumBlocks())
	stats, err := Restore(ctx, RestoreOptions{
		Vol: target, Source: src, Salvage: true,
	})
	if err != nil {
		t.Fatalf("salvage restore: %v", err)
	}
	if stats.TornTail {
		t.Fatal("clean stream reported a torn tail")
	}
	if retries, _ := src.ReadStats(); retries == 0 {
		t.Fatal("no transient faults fired during salvage restore")
	}
	restored, err := wafl.Mount(ctx, target, nil, wafl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sv, _ := fs.SnapshotView("s")
	want, _ := workload.TreeDigest(ctx, sv, "/")
	got, _ := workload.TreeDigest(ctx, restored.ActiveView(), "/")
	if diffs := workload.DiffDigests(want, got); len(diffs) > 0 {
		t.Fatalf("restored volume differs: %v", diffs[0])
	}
}

// TestImageRestoreSurfacesPersistentReadFault: without SkipDamaged, a
// latched bad spot fails the restore with a typed media-read error —
// the caller decides whether to fall back to salvage.
func TestImageRestoreSurfacesPersistentReadFault(t *testing.T) {
	_, dev, drive := imageOnTape(t)
	if err := drive.SpaceRecords(nil, 2); err != nil {
		t.Fatal(err)
	}
	drive.FailNextRead(false)
	if _, err := drive.ReadRecord(nil); err == nil {
		t.Fatal("latching read unexpectedly succeeded")
	}
	drive.Rewind(nil)
	target := storage.NewMemDevice(dev.NumBlocks())
	_, err := Restore(ctx, RestoreOptions{
		Vol: target, Source: logical.NewDriveSource(drive, nil, 1),
	})
	if !errors.Is(err, tape.ErrMediaRead) {
		t.Fatalf("restore returned %v, want a media read error", err)
	}
}
