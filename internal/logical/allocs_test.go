package logical

import (
	"testing"

	"repro/internal/allocpin"
	"repro/internal/bufpool"
	"repro/internal/chunk"
	"repro/internal/nvram"
	"repro/internal/storage"
	"repro/internal/tape"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// pinTree fills fs with the tree the allocation pins dump and restore
// and returns a snapshot view of it.
func pinTree(t *testing.T, fs *wafl.FS) *wafl.View {
	t.Helper()
	if _, err := workload.Generate(ctx, fs, workload.Spec{
		Seed: 7, Files: 120, DirFanout: 12, MeanFileSize: 64 << 10, Symlinks: 3, Hardlinks: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if err := fs.CreateSnapshot(ctx, "s"); err != nil {
		t.Fatal(err)
	}
	view, err := fs.SnapshotView("s")
	if err != nil {
		t.Fatal(err)
	}
	return view
}

// restoreAllocsPerMiB restores what drive holds onto a filesystem that
// logs to NVRAM as the filer's does, checks the tree against want's and
// returns the heap objects the restore allocated per MiB it laid down.
// The restore counted is the second onto the same wiped volume, as the
// benchmark's are: the first backs the device blocks a restore writes
// and warms the NVRAM log, neither of which a filer pays per restore.
func restoreAllocsPerMiB(t *testing.T, want *wafl.View, drive *tape.Drive, opts ...func(*RestoreOptions)) float64 {
	t.Helper()
	dev := storage.NewMemDevice(16384)
	nv := nvram.New(nil, nvram.DefaultParams())
	wipe := func() *wafl.FS {
		nv.Reset()
		fs, err := wafl.Mkfs(ctx, dev, nv, wafl.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	restoreFromTape(t, wipe(), drive, opts...)
	dst := wipe()
	var stats *RestoreStats
	mallocs := allocpin.Count(t, func() { stats = restoreFromTape(t, dst, drive, opts...) })
	assertTreesEqual(t, digests(t, want, "/"), digests(t, dst.ActiveView(), "/"))

	perMiB := float64(mallocs) / (float64(stats.BytesRead) / (1 << 20))
	t.Logf("%d files, %.1f MiB: %.0f allocations per MiB", stats.FilesRestored, float64(stats.BytesRead)/(1<<20), perMiB)
	return perMiB
}

// TestRestoreAllocsPerMiB pins the heap objects a logical restore
// allocates per MiB it lays down, through a filesystem that logs to
// NVRAM as the filer's does: a ceiling that only ratchets down.
// Measured 36 when recorded. What is left (make alloc-profile): the
// block map of a file past 16 blocks; the slab takeBuf cuts 64 staged
// buffers from until a consistency point trades them back (this restore
// fits in one NVRAM half, so every block it stages takes a new one: 4
// per MiB); the skeleton's maps; and the consistency point's pointer
// blocks and sort scratch. What must not come back is a 4 KiB buffer per
// block takeBuf stages (297 with it), or per directory a decoded entry
// list and the skeleton's listing of it (307 with those too); per file,
// wafl's istate, dirty map and block map (149 per MiB), NVRAM's copy of
// each entry logged (52), a Header, hole map and label per header
// decoded (31) or a location slice per directory entry (15): 563 with
// those. Nor must a copy of every record read (the drive's and the dump
// reader's: 1 228 with them), a string per directory entry listed or
// decoded, an error formatted per lookup that misses, a string per
// directory record a lookup passes over, a lookup per dump entry in the
// skeleton, a copy of each block a consistency point hands the cache, a
// write buffer per file (2 546 with all four), or two cache-entry
// objects per block cached and a log entry grown by doubling (2 074
// with those).
func TestRestoreAllocsPerMiB(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	view := pinTree(t, newFS(t, 16384))
	drive := newTape(t, 0, 1)
	dumpToTape(t, view, drive, 0, nil)
	const ceiling = 38
	if perMiB := restoreAllocsPerMiB(t, view, drive); perMiB > ceiling {
		t.Fatalf("logical restore: %.0f allocations per MiB restored, want <= %d", perMiB, ceiling)
	}
}

// TestDedupRestoreAllocsPerMiB pins the same restore fed by chunk.Reader
// instead: the stream dedup'd onto tape through DriveMedia and read back
// chunk by chunk, as a dedup'd set is restored. Measured 63–64 when
// recorded: the plain restore's objects and compress/flate's Huffman
// tables, built afresh for every deflated block (22 per MiB; the
// standard library's). What must not come back is a buffer per chunk
// inflated or per record re-blocked, or anything on the plain restore's
// list: 324 with takeBuf's buffer per block staged, 335 with the
// per-directory lists too, 1 380 with all of it.
func TestDedupRestoreAllocsPerMiB(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	view := pinTree(t, newFS(t, 16384))
	drive := newTape(t, 0, 1)
	media := chunk.NewDriveMedia(drive, nil)
	ix := chunkIndex{}
	w, err := chunk.NewWriter(chunk.WriterOptions{Index: ix, Media: media, Engine: "logical"})
	if err != nil {
		t.Fatal(err)
	}
	dumpToTape(t, view, drive, 0, nil, func(o *DumpOptions) { o.Sink = w })
	m, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 67
	if perMiB := restoreAllocsPerMiB(t, view, drive, func(o *RestoreOptions) {
		o.Source = chunk.NewReader(ix, media, m)
	}); perMiB > ceiling {
		t.Fatalf("dedup'd restore: %.0f allocations per MiB restored, want <= %d", perMiB, ceiling)
	}
}

// TestDumpAllocsPerMiB pins the heap objects a logical dump allocates
// per MiB it writes, reading through a warm filesystem whose cache is a
// fraction of the tree, with the engine's read-ahead on: every file
// block is a prefetch miss that evicts another. Measured 20 when
// recorded (21 with every allocation sampled): the maps of Phase I and
// II, each shard's pipeline and the engine's per-file bookkeeping.
// bufpool keeps its buffers across the collections a GC or a profile
// write runs, so none is refilled (24–28 while it was a sync.Pool,
// which empties at GC). What must not come back is a directory
// listing's entries and names per directory listed, in Phase I and
// again in Phase III, or an encoded buffer per directory (38–40 with
// them); the tape's copy of each record it is handed or a hole map per
// chunk staged (150 with them), a string per directory entry listed
// (212 with it) or a heap object per block read or cached (1 110 with
// them).
func TestDumpAllocsPerMiB(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	src, err := wafl.Mkfs(ctx, storage.NewMemDevice(16384), nil, wafl.Options{CacheBlocks: 256})
	if err != nil {
		t.Fatal(err)
	}
	view := pinTree(t, src)
	dumpToTape(t, view, newTape(t, 0, 1), 0, nil, func(o *DumpOptions) { o.ReadAhead = 16 })

	drive := newTape(t, 0, 1)
	var stats *DumpStats
	mallocs := allocpin.Count(t, func() {
		stats = dumpToTape(t, view, drive, 0, nil, func(o *DumpOptions) { o.ReadAhead = 16 })
	})

	perMiB := float64(mallocs) / (float64(stats.BytesWritten) / (1 << 20))
	t.Logf("%d files, %.1f MiB: %.0f allocations per MiB", stats.FilesDumped, float64(stats.BytesWritten)/(1<<20), perMiB)
	const ceiling = 23
	if perMiB > ceiling {
		t.Fatalf("logical dump: %.0f allocations per MiB written, want <= %d", perMiB, ceiling)
	}
}

// TestDriveSinkWriteRecordAllocs pins a fault-free record write through
// the sink at nothing, on a warm cartridge: one a pass has filled and
// erased, as the benchmark's are before every pass. The cartridge
// copies the record into a slab it took from bufpool, and the sink's
// own retry and error classification cost nothing when there is no
// error.
func TestDriveSinkWriteRecordAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	drive := newTape(t, 0, 1)
	sink := &DriveSink{Drive: drive}
	rec := make([]byte, 10<<10)
	write := func() {
		if err := sink.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 400; i++ {
		write()
	}
	drive.Loaded().Erase()
	if n := testing.AllocsPerRun(200, write); n != 0 {
		t.Fatalf("DriveSink.WriteRecord: %v allocs per record, want 0", n)
	}
}
