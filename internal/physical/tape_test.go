package physical

import (
	"testing"

	"repro/internal/logical"
	"repro/internal/storage"
	"repro/internal/tape"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// Image streams through real tape drives, including cartridge spanning
// when the stream exceeds one cartridge's capacity.

func TestImageDumpSpansCartridges(t *testing.T) {
	fs, dev := newFS(t, 8192)
	workload.Generate(ctx, fs, workload.Spec{Seed: 101, Files: 40, DirFanout: 6, MeanFileSize: 24 << 10})
	if err := fs.CreateSnapshot(ctx, "s"); err != nil {
		t.Fatal(err)
	}

	p := tape.DefaultParams()
	p.Capacity = 512 << 10 // 512 KB cartridges force spanning
	drive := tape.NewDrive(nil, "t0", p)
	for i := 0; i < 24; i++ {
		drive.AddCartridges(tape.NewCartridge(string(rune('a' + i))))
	}
	if err := drive.Load(nil); err != nil {
		t.Fatal(err)
	}

	stats, err := Dump(ctx, DumpOptions{
		FS: fs, Vol: dev, SnapName: "s",
		Sink: &logical.DriveSink{Drive: drive},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, changes := drive.Stats()
	if changes < 4 { // initial load + at least three spans
		t.Fatalf("dump of %d bytes used %d cartridge changes, expected spanning", stats.BytesWritten, changes)
	}

	// Cycle the stacker back to the first cartridge and restore across
	// all of them.
	for drive.Loaded().Label != "a" {
		if err := drive.Load(nil); err != nil {
			t.Fatal(err)
		}
	}
	drive.Rewind(nil)
	target := storage.NewMemDevice(dev.NumBlocks())
	if _, err := Restore(ctx, RestoreOptions{
		Vol: target, Source: logical.NewDriveSource(drive, nil, 24),
	}); err != nil {
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
		t.Fatalf("spanned image restore differs: %v", diffs[0])
	}
	if err := restored.MustCheck(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestImageVerifyAcrossCartridges(t *testing.T) {
	fs, dev := newFS(t, 4096)
	fs.WriteFile(ctx, "/blob", make([]byte, 2<<20), 0644)
	fs.CreateSnapshot(ctx, "s")
	p := tape.DefaultParams()
	p.Capacity = 512 << 10
	drive := tape.NewDrive(nil, "t0", p)
	for i := 0; i < 16; i++ {
		drive.AddCartridges(tape.NewCartridge(string(rune('a' + i))))
	}
	drive.Load(nil)
	if _, err := Dump(ctx, DumpOptions{FS: fs, Vol: dev, SnapName: "s", Sink: &logical.DriveSink{Drive: drive}}); err != nil {
		t.Fatal(err)
	}
	for drive.Loaded().Label != "a" {
		drive.Load(nil)
	}
	drive.Rewind(nil)
	if _, err := VerifyStream(ctx, logical.NewDriveSource(drive, nil, 16)); err != nil {
		t.Fatalf("spanned stream does not verify: %v", err)
	}
}
