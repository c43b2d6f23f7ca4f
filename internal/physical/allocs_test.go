package physical

import (
	"testing"

	"repro/internal/allocpin"
	"repro/internal/bufpool"
	"repro/internal/logical"
	"repro/internal/raid"
	"repro/internal/tape"
	"repro/internal/vdev"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// TestImageRestoreAllocsPerMiB pins the heap objects an image restore
// allocates per MiB it reads, onto a freshly built raid.Volume as the
// benchmark's physical restore passes are: every block it writes is a
// first write to some member disk. The restore counted is the second,
// onto a second fresh volume, so the pools are warm as they are after
// the benchmark's first pass. Measured 5.3 when recorded (5.4 with
// every allocation sampled): the member disks' backing slabs, one per
// 64 blocks first written to a disk (4.8), and the restore's own
// set-up; bufpool keeps its buffers across GC, so none is refilled
// (6.2–7.1 while it was a sync.Pool). What must not come back is
// a backing allocation per run a disk is written (14.4 with it) or per
// block.
func TestImageRestoreAllocsPerMiB(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// The filer's shape, three RAID groups of ten data disks, holding the
	// source volume's blocks exactly: a restore mounts only onto its
	// source's geometry.
	const groups, disks, perDisk = 3, 10, 548
	fs, dev := newFS(t, groups*disks*perDisk)
	if _, err := workload.Generate(ctx, fs, workload.Spec{
		Seed: 7, Files: 120, DirFanout: 12, MeanFileSize: 64 << 10, Symlinks: 3, Hardlinks: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if err := fs.CreateSnapshot(ctx, "s"); err != nil {
		t.Fatal(err)
	}
	drive := tape.NewDrive(nil, "t0", tape.DefaultParams())
	drive.AddCartridges(tape.NewCartridge("a"))
	if err := drive.Load(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Dump(ctx, DumpOptions{FS: fs, Vol: dev, SnapName: "s", Sink: &logical.DriveSink{Drive: drive}}); err != nil {
		t.Fatal(err)
	}

	newTarget := func() *raid.Volume {
		vol, err := raid.Build(nil, "target", raid.Config{
			Groups: groups, DataDisksPerGroup: disks, BlocksPerDisk: perDisk, DiskParams: vdev.DefaultParams(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return vol
	}
	restore := func(target *raid.Volume) *RestoreStats {
		drive.Rewind(nil)
		stats, err := Restore(ctx, RestoreOptions{Vol: target, Source: logical.NewDriveSource(drive, nil, 1)})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	restore(newTarget())
	target := newTarget()
	var stats *RestoreStats
	mallocs := allocpin.Count(t, func() { stats = restore(target) })

	restored, err := wafl.Mount(ctx, target, nil, wafl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sv, err := fs.SnapshotView("s")
	if err != nil {
		t.Fatal(err)
	}
	want, err := workload.TreeDigest(ctx, sv, "/")
	if err != nil {
		t.Fatal(err)
	}
	got, err := workload.TreeDigest(ctx, restored.ActiveView(), "/")
	if err != nil {
		t.Fatal(err)
	}
	if diffs := workload.DiffDigests(want, got); len(diffs) > 0 {
		t.Fatalf("image restore differs: %v", diffs[0])
	}

	perMiB := float64(mallocs) / (float64(stats.BytesRead) / (1 << 20))
	t.Logf("%d blocks, %.1f MiB: %.1f allocations per MiB", stats.BlocksRestored, float64(stats.BytesRead)/(1<<20), perMiB)
	const ceiling = 6
	if perMiB > ceiling {
		t.Fatalf("image restore: %.1f allocations per MiB read, want <= %d", perMiB, ceiling)
	}
}
