package logical

import (
	"runtime"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/nvram"
	"repro/internal/storage"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// TestRestoreAllocsPerMiB pins the heap objects a logical restore
// allocates per MiB it lays down, through a filesystem that logs to
// NVRAM as the filer's does: a ceiling that only ratchets down.
// Measured 1 230 when recorded. What is left: a staged 4 KiB buffer
// per block until a consistency point trades them back (this restore
// fits in one NVRAM half, so that is all 256 per MiB; a longer one
// reuses them), the dump reader's and the tape drive's copies of every
// record read, and NVRAM's copy of every entry logged. What must not
// come back is a string per directory record a lookup passes over, a
// lookup per dump entry in the skeleton, a copy of each block a
// consistency point hands the cache, a write buffer per file (2 546
// with all four), or two cache-entry objects per block cached and a
// log entry grown by doubling (2 074 with those).
func TestRestoreAllocsPerMiB(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	src := newFS(t, 16384)
	if _, err := workload.Generate(ctx, src, workload.Spec{
		Seed: 7, Files: 120, DirFanout: 12, MeanFileSize: 64 << 10, Symlinks: 3, Hardlinks: 2,
	}); err != nil {
		t.Fatal(err)
	}
	src.CreateSnapshot(ctx, "s")
	view, _ := src.SnapshotView("s")
	drive := newTape(t, 0, 1)
	dumpToTape(t, view, drive, 0, nil)

	dst, err := wafl.Mkfs(ctx, storage.NewMemDevice(16384), nvram.New(nil, nvram.DefaultParams()), wafl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	stats := restoreFromTape(t, dst, drive)
	runtime.ReadMemStats(&after)
	assertTreesEqual(t, digests(t, view, "/"), digests(t, dst.ActiveView(), "/"))

	perMiB := float64(after.Mallocs-before.Mallocs) / (float64(stats.BytesRead) / (1 << 20))
	t.Logf("%d files, %.1f MiB: %.0f allocations per MiB", stats.FilesRestored, float64(stats.BytesRead)/(1<<20), perMiB)
	const ceiling = 1267
	if perMiB > ceiling {
		t.Fatalf("logical restore: %.0f allocations per MiB restored, want <= %d", perMiB, ceiling)
	}
}

// TestDumpAllocsPerMiB pins the heap objects a logical dump allocates
// per MiB it writes, reading through a warm filesystem whose cache is a
// fraction of the tree, with the engine's read-ahead on: every file
// block is a prefetch miss that evicts another. Measured 212 when
// recorded, the tape's copy of each record it is handed and the
// engine's per-file bookkeeping; what must not come back is a heap
// object per block read or cached (1 110 with them).
func TestDumpAllocsPerMiB(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	src, err := wafl.Mkfs(ctx, storage.NewMemDevice(16384), nil, wafl.Options{CacheBlocks: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Generate(ctx, src, workload.Spec{
		Seed: 7, Files: 120, DirFanout: 12, MeanFileSize: 64 << 10, Symlinks: 3, Hardlinks: 2,
	}); err != nil {
		t.Fatal(err)
	}
	src.CreateSnapshot(ctx, "s")
	view, _ := src.SnapshotView("s")
	dumpToTape(t, view, newTape(t, 0, 1), 0, nil, func(o *DumpOptions) { o.ReadAhead = 16 })

	drive := newTape(t, 0, 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	stats := dumpToTape(t, view, drive, 0, nil, func(o *DumpOptions) { o.ReadAhead = 16 })
	runtime.ReadMemStats(&after)

	perMiB := float64(after.Mallocs-before.Mallocs) / (float64(stats.BytesWritten) / (1 << 20))
	t.Logf("%d files, %.1f MiB: %.0f allocations per MiB", stats.FilesDumped, float64(stats.BytesWritten)/(1<<20), perMiB)
	const ceiling = 218
	if perMiB > ceiling {
		t.Fatalf("logical dump: %.0f allocations per MiB written, want <= %d", perMiB, ceiling)
	}
}

// TestDriveSinkWriteRecordAllocs pins a fault-free record write through
// the sink at the one object the cartridge keeps: its copy of the
// record. The sink's own retry and error classification cost nothing
// when there is no error.
func TestDriveSinkWriteRecordAllocs(t *testing.T) {
	sink := &DriveSink{Drive: newTape(t, 0, 1)}
	rec := make([]byte, 10<<10)
	if n := testing.AllocsPerRun(200, func() {
		if err := sink.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("DriveSink.WriteRecord: %v allocs per record, want 1 (the cartridge's copy)", n)
	}
}
