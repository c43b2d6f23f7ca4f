package physical

import (
	"runtime"
	"testing"

	"repro/internal/allocpin"
	"repro/internal/bufpool"
	"repro/internal/logical"
	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/tape"
	"repro/internal/vdev"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// TestImageDumpAllocsPerMiB pins the heap objects a fanned-out image
// dump allocates per MiB it writes, at the benchmark's physical shape:
// a simulated RAID volume of three groups of ten data disks, four
// streams, three readers per stream each keeping three run reads in
// flight. It runs on a sim process, so every run read takes the timed
// branch and waits on its completion. The dump counted is the second,
// so the pools are warm. Measured 35–37 when recorded (36 with every
// allocation sampled), nearly all of it set up once per dump and so
// large only because the volume is small: the sim processes of the
// shards and readers with their events and conditions, the fan-out
// pipelines and their queues, names and the extent plan (make
// alloc-profile). The run reads themselves allocate nothing
// (TestRunIOZeroAlloc). What must not come back is a heap object per
// block read, ≈ 256 per MiB.
func TestImageDumpAllocsPerMiB(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const groups, disks, perDisk = 3, 10, 548
	env := sim.NewEnv()
	vol, err := raid.Build(env, "source", raid.Config{
		Groups: groups, DataDisksPerGroup: disks, BlocksPerDisk: perDisk, DiskParams: vdev.DefaultParams(),
	})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := wafl.Mkfs(ctx, vol, nil, wafl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Generate(ctx, fs, workload.Spec{
		Seed: 7, Files: 120, DirFanout: 12, MeanFileSize: 64 << 10, Symlinks: 3, Hardlinks: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if err := fs.CreateSnapshot(ctx, "s"); err != nil {
		t.Fatal(err)
	}
	costs := DefaultCosts()
	costs.CPU = sim.NewStation(env, "cpu", 0)
	dump := func() *DumpStats {
		var stats *DumpStats
		env.Spawn("idump", func(p *sim.Proc) {
			var err error
			stats, err = Dump(sim.WithProc(ctx, p), DumpOptions{
				FS: fs, Vol: vol, SnapName: "s", Costs: costs,
				Sinks: []stream.Sink{nullSink{}, nullSink{}, nullSink{}, nullSink{}}, Readers: 3, ReadAhead: 3,
			})
			if err != nil {
				t.Error(err)
			}
		})
		env.Run()
		if stats == nil {
			t.FailNow()
		}
		return stats
	}
	dump()
	var stats *DumpStats
	mallocs := allocpin.Count(t, func() { stats = dump() })

	perMiB := float64(mallocs) / (float64(stats.BytesWritten) / (1 << 20))
	t.Logf("%d blocks, %.1f MiB: %.1f allocations per MiB", stats.BlocksDumped, float64(stats.BytesWritten)/(1<<20), perMiB)
	const ceiling = 40
	if perMiB > ceiling {
		t.Fatalf("image dump: %.1f allocations per MiB written, want <= %d", perMiB, ceiling)
	}
}

// imageRestoreRig is the set-up of an image restore onto a fresh
// volume, shared by TestImageRestoreAllocsPerMiB, which counts its
// allocations, and BenchmarkImageRestore, which times it: a level-0
// image dump of a generated tree on a cartridge, and the filer's shape,
// three RAID groups of ten data disks, holding the source volume's
// blocks exactly (a restore mounts only onto its source's geometry).
// newTarget builds a fresh target volume, untimed; restore rewinds the
// cartridge and restores the dump onto a target.
type imageRestoreRig struct {
	fs        *wafl.FS
	disks     int // member disks of a target, parity disks included
	perDisk   int // blocks per member disk
	newTarget func() *raid.Volume
	restore   func(*raid.Volume) *RestoreStats
}

func newImageRestoreRig(tb testing.TB) imageRestoreRig {
	const groups, disks, perDisk = 3, 10, 548
	fs, dev := newFS(tb, groups*disks*perDisk)
	if _, err := workload.Generate(ctx, fs, workload.Spec{
		Seed: 7, Files: 120, DirFanout: 12, MeanFileSize: 64 << 10, Symlinks: 3, Hardlinks: 2,
	}); err != nil {
		tb.Fatal(err)
	}
	if err := fs.CreateSnapshot(ctx, "s"); err != nil {
		tb.Fatal(err)
	}
	drive := tape.NewDrive(nil, "t0", tape.DefaultParams())
	drive.AddCartridges(tape.NewCartridge("a"))
	if err := drive.Load(nil); err != nil {
		tb.Fatal(err)
	}
	if _, err := Dump(ctx, DumpOptions{FS: fs, Vol: dev, SnapName: "s", Sink: &logical.DriveSink{Drive: drive}}); err != nil {
		tb.Fatal(err)
	}
	return imageRestoreRig{
		fs:      fs,
		disks:   groups * (disks + 1),
		perDisk: perDisk,
		newTarget: func() *raid.Volume {
			vol, err := raid.Build(nil, "target", raid.Config{
				Groups: groups, DataDisksPerGroup: disks, BlocksPerDisk: perDisk, DiskParams: vdev.DefaultParams(),
			})
			if err != nil {
				tb.Fatal(err)
			}
			return vol
		},
		restore: func(target *raid.Volume) *RestoreStats {
			drive.Rewind(nil)
			stats, err := Restore(ctx, RestoreOptions{Vol: target, Source: logical.NewDriveSource(drive, nil, 1)})
			if err != nil {
				tb.Fatal(err)
			}
			return stats
		},
	}
}

// TestImageRestoreAllocsPerMiB pins the heap objects an image restore
// allocates per MiB it reads, onto a freshly built raid.Volume as the
// benchmark's physical restore passes are: every block it writes is a
// first write to some member disk. The restore counted is the second,
// onto a second fresh volume, and the first restore's target is
// dropped before it: once that target's slabs are back in bufpool, the
// member disks back every block from them, and the pools are warm as
// they are after the benchmark's first passes. Measured 0.5–0.6 when
// recorded, the restore's own set-up. What must not come back is a
// backing allocation per 64 blocks first written to a disk (5.3 per
// MiB while every device made its own slabs), per run a disk is
// written (14.4), or per block.
func TestImageRestoreAllocsPerMiB(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rig := newImageRestoreRig(t)
	// Fill the pool with as many slabs as a target's member disks can
	// take (every data and parity disk written whole), so the first
	// restore takes all of its slabs from the pool and the second
	// finds them all back once the pool holds what it held before.
	const slabBytes = 64 * storage.BlockSize // a storage.MemDevice slab
	most := rig.disks * ((rig.perDisk*storage.BlockSize + slabBytes - 1) / slabBytes)
	held := make([]*[]byte, most)
	for i := range held {
		held[i] = bufpool.Get(slabBytes)
	}
	for _, p := range held {
		bufpool.Put(p)
	}
	free := bufpool.Free(slabBytes)
	first := rig.newTarget()
	rig.restore(first)
	runtime.KeepAlive(first)
	allocpin.AwaitFree(t, slabBytes, free)

	target := rig.newTarget()
	var stats *RestoreStats
	mallocs := allocpin.Count(t, func() { stats = rig.restore(target) })

	restored, err := wafl.Mount(ctx, target, nil, wafl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sv, err := rig.fs.SnapshotView("s")
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
	const ceiling = 1
	if perMiB > ceiling {
		t.Fatalf("image restore: %.1f allocations per MiB read, want <= %d", perMiB, ceiling)
	}
}
