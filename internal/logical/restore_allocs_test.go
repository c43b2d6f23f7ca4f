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
// Measured 2 074 when recorded. What is left is a staged 4 KiB block
// and two cache-entry objects per block restored, and the dump
// reader's per-record buffers; what must not come back is a string per
// directory record a lookup passes over, a lookup per dump entry in the
// skeleton, a copy of each block a consistency point hands the cache,
// or a write buffer per file (2 546 with all four).
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
	const ceiling = 2120
	if perMiB > ceiling {
		t.Fatalf("logical restore: %.0f allocations per MiB restored, want <= %d", perMiB, ceiling)
	}
}
