package logical

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/tape"
	"repro/internal/wafl"
	"repro/internal/workload"
)

var ctx = context.Background()

func newFS(t *testing.T, blocks int) *wafl.FS {
	t.Helper()
	fs, err := wafl.Mkfs(ctx, storage.NewMemDevice(blocks), nil, wafl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// newTape returns a drive loaded with enough cartridges.
func newTape(t *testing.T, capacity int64, carts int) *tape.Drive {
	t.Helper()
	p := tape.DefaultParams()
	p.Capacity = capacity
	d := tape.NewDrive(nil, "t0", p)
	for i := 0; i < carts; i++ {
		d.AddCartridges(tape.NewCartridge(string(rune('a' + i))))
	}
	if err := d.Load(nil); err != nil {
		t.Fatal(err)
	}
	return d
}

// dumpToTape runs a level-N dump of view to drive.
func dumpToTape(t *testing.T, view *wafl.View, drive *tape.Drive, level int, dates *DumpDates, opts ...func(*DumpOptions)) *DumpStats {
	t.Helper()
	o := DumpOptions{
		View: view, Level: level, Dates: dates, FSID: "test",
		Sink: &DriveSink{Drive: drive}, Label: "test", ReadAhead: 8,
	}
	for _, f := range opts {
		f(&o)
	}
	stats, err := Dump(ctx, o)
	if err != nil {
		t.Fatalf("dump: %v", err)
	}
	drive.Flush(nil)
	return stats
}

func restoreFromTape(t *testing.T, fs *wafl.FS, drive *tape.Drive, opts ...func(*RestoreOptions)) *RestoreStats {
	t.Helper()
	drive.Rewind(nil)
	o := RestoreOptions{
		FS: fs, Source: NewDriveSource(drive, nil, 0),
		KernelIntegrated: true,
	}
	for _, f := range opts {
		f(&o)
	}
	stats, err := Restore(ctx, o)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	return stats
}

func digests(t *testing.T, v *wafl.View, root string) map[string]workload.Entry {
	t.Helper()
	d, err := workload.TreeDigest(ctx, v, root)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func assertTreesEqual(t *testing.T, a, b map[string]workload.Entry) {
	t.Helper()
	if diffs := workload.DiffDigests(a, b); len(diffs) > 0 {
		for i, d := range diffs {
			if i >= 10 {
				t.Errorf("... and %d more", len(diffs)-10)
				break
			}
			t.Error(d)
		}
		t.FailNow()
	}
}

func TestFullDumpRestoreRoundTrip(t *testing.T) {
	src := newFS(t, 16384)
	spec := workload.DefaultSpec()
	if _, err := workload.Generate(ctx, src, spec); err != nil {
		t.Fatal(err)
	}
	if err := src.CreateSnapshot(ctx, "dump"); err != nil {
		t.Fatal(err)
	}
	sv, _ := src.SnapshotView("dump")

	drive := newTape(t, 0, 1)
	stats := dumpToTape(t, sv, drive, 0, nil)
	if stats.FilesDumped == 0 || stats.DirsDumped == 0 || stats.BytesWritten == 0 {
		t.Fatalf("empty dump stats: %+v", stats)
	}

	dst := newFS(t, 16384)
	rstats := restoreFromTape(t, dst, drive)
	if rstats.FilesRestored != stats.FilesDumped {
		t.Fatalf("restored %d files, dumped %d", rstats.FilesRestored, stats.FilesDumped)
	}
	assertTreesEqual(t, digests(t, sv, "/"), digests(t, dst.ActiveView(), "/"))
	if err := dst.MustCheck(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestCrossRestoreDifferentGeometry(t *testing.T) {
	// Logical backup's portability: restore onto a volume of totally
	// different size (paper: the stream presupposes no knowledge of
	// the source filesystem).
	src := newFS(t, 8192)
	workload.Generate(ctx, src, workload.Spec{Seed: 3, Files: 60, DirFanout: 6, MeanFileSize: 8 << 10})
	src.CreateSnapshot(ctx, "s")
	sv, _ := src.SnapshotView("s")
	drive := newTape(t, 0, 1)
	dumpToTape(t, sv, drive, 0, nil)

	dst := newFS(t, 3000) // much smaller, single group
	restoreFromTape(t, dst, drive)
	assertTreesEqual(t, digests(t, sv, "/"), digests(t, dst.ActiveView(), "/"))
}

func TestSingleFileStupidityRecovery(t *testing.T) {
	src := newFS(t, 8192)
	paths, err := workload.Generate(ctx, src, workload.Spec{Seed: 4, Files: 50, DirFanout: 5, MeanFileSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	victim := paths[0]
	precious, err := src.ActiveView().ReadFile(ctx, victim)
	if err != nil {
		t.Fatal(err)
	}
	src.CreateSnapshot(ctx, "s")
	sv, _ := src.SnapshotView("s")
	drive := newTape(t, 0, 1)
	stats := dumpToTape(t, sv, drive, 0, nil)

	// "Accidentally" delete the file, then restore just it.
	if err := src.RemovePath(ctx, victim); err != nil {
		t.Fatal(err)
	}
	rstats := restoreFromTape(t, src, drive, func(o *RestoreOptions) {
		o.Files = []string{victim}
	})
	if rstats.FilesRestored != 1 {
		t.Fatalf("restored %d files, want 1", rstats.FilesRestored)
	}
	if rstats.FilesSkipped != stats.FilesDumped-1 {
		t.Fatalf("skipped %d, want %d", rstats.FilesSkipped, stats.FilesDumped-1)
	}
	got, err := src.ActiveView().ReadFile(ctx, victim)
	if err != nil || !bytes.Equal(got, precious) {
		t.Fatalf("recovered file wrong: %v", err)
	}
	if err := src.MustCheck(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestSubtreeDump(t *testing.T) {
	src := newFS(t, 8192)
	src.WriteFile(ctx, "/proj/a.txt", []byte("aaa"), 0644)
	src.WriteFile(ctx, "/proj/sub/b.txt", []byte("bbb"), 0644)
	src.WriteFile(ctx, "/other/c.txt", []byte("ccc"), 0644)
	src.CreateSnapshot(ctx, "s")
	sv, _ := src.SnapshotView("s")
	drive := newTape(t, 0, 1)
	dumpToTape(t, sv, drive, 0, nil, func(o *DumpOptions) { o.Subtree = "/proj" })

	dst := newFS(t, 2048)
	restoreFromTape(t, dst, drive, func(o *RestoreOptions) { o.TargetDir = "/restored" })
	got, err := dst.ActiveView().ReadFile(ctx, "/restored/sub/b.txt")
	if err != nil || string(got) != "bbb" {
		t.Fatalf("subtree file: %q, %v", got, err)
	}
	if _, err := dst.ActiveView().ReadFile(ctx, "/restored/c.txt"); err == nil {
		t.Fatal("file outside subtree leaked into dump")
	}
}

func TestExcludeFilter(t *testing.T) {
	src := newFS(t, 4096)
	src.WriteFile(ctx, "/keep.txt", []byte("k"), 0644)
	src.WriteFile(ctx, "/skip.tmp", []byte("s"), 0644)
	src.WriteFile(ctx, "/dir/also.tmp", []byte("s2"), 0644)
	src.WriteFile(ctx, "/dir/fine.txt", []byte("f"), 0644)
	src.CreateSnapshot(ctx, "s")
	sv, _ := src.SnapshotView("s")
	drive := newTape(t, 0, 1)
	dumpToTape(t, sv, drive, 0, nil, func(o *DumpOptions) {
		o.Exclude = func(name string) bool { return strings.HasSuffix(name, ".tmp") }
	})

	dst := newFS(t, 2048)
	restoreFromTape(t, dst, drive)
	if _, err := dst.ActiveView().ReadFile(ctx, "/keep.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.ActiveView().ReadFile(ctx, "/dir/fine.txt"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/skip.tmp", "/dir/also.tmp"} {
		if _, err := dst.ActiveView().ReadFile(ctx, p); err == nil {
			t.Fatalf("%s should have been filtered", p)
		}
	}
}

func TestIncrementalChainWithDeletesAndRenames(t *testing.T) {
	src := newFS(t, 16384)
	dates := NewDumpDates()

	// Level 0 state.
	src.WriteFile(ctx, "/stable.txt", []byte("stable"), 0644)
	src.WriteFile(ctx, "/doomed.txt", []byte("doomed"), 0644)
	src.WriteFile(ctx, "/dir/old-name.txt", []byte("renamed content"), 0644)
	src.WriteFile(ctx, "/dir/grows.txt", []byte("v1"), 0644)
	src.CreateSnapshot(ctx, "level0")
	sv0, _ := src.SnapshotView("level0")
	tape0 := newTape(t, 0, 1)
	dumpToTape(t, sv0, tape0, 0, dates)

	// Mutations before level 1: delete, rename, modify, create.
	src.RemovePath(ctx, "/doomed.txt")
	dirIno, _ := src.ActiveView().Namei(ctx, "/dir")
	if err := src.Rename(ctx, dirIno, "old-name.txt", dirIno, "new-name.txt"); err != nil {
		t.Fatal(err)
	}
	src.WriteFile(ctx, "/dir/grows.txt", []byte("v2 is longer"), 0644)
	src.WriteFile(ctx, "/fresh.txt", []byte("fresh"), 0644)
	src.CreateSnapshot(ctx, "level1")
	sv1, _ := src.SnapshotView("level1")
	tape1 := newTape(t, 0, 1)
	s1 := dumpToTape(t, sv1, tape1, 1, dates)
	if s1.BaseDate == 0 {
		t.Fatal("level 1 dump has no base date")
	}

	// The incremental must be much smaller than the full.
	// (It carries only changed files plus directories.)
	if s1.FilesDumped >= 4 {
		t.Fatalf("incremental dumped %d files, want < 4", s1.FilesDumped)
	}

	// Restore: level 0, then apply level 1 with deletion sync.
	dst := newFS(t, 16384)
	restoreFromTape(t, dst, tape0)
	grows, _ := dst.ActiveView().Namei(ctx, "/dir/grows.txt")
	r1 := restoreFromTape(t, dst, tape1, func(o *RestoreOptions) { o.SyncDeletes = true })

	assertTreesEqual(t, digests(t, sv1, "/"), digests(t, dst.ActiveView(), "/"))
	if err := dst.MustCheck(ctx); err != nil {
		t.Fatal(err)
	}
	// The level 1 deleted exactly the two names that went away, made no
	// directory, and updated the changed file in place.
	if r1.Deleted != 2 || r1.DirsCreated != 0 {
		t.Fatalf("level 1 deleted %d entries and made %d directories, want 2 and 0", r1.Deleted, r1.DirsCreated)
	}
	if ino, _ := dst.ActiveView().Namei(ctx, "/dir/grows.txt"); ino != grows {
		t.Fatalf("/dir/grows.txt is inode %d after the level 1, was %d: not adopted", ino, grows)
	}
}

// TestRestoreIntoPopulatedDirectory: a restore without SyncDeletes
// adopts what the target already has under the dump's names — an
// existing directory is descended into, an existing file truncated and
// rewritten in place — and leaves every unrelated entry alone.
func TestRestoreIntoPopulatedDirectory(t *testing.T) {
	src := newFS(t, 8192)
	src.WriteFile(ctx, "/shared/from-dump.txt", []byte("dump"), 0644)
	src.WriteFile(ctx, "/shared/both.txt", []byte("short"), 0644)
	src.WriteFile(ctx, "/new/file.txt", []byte("new"), 0644)
	src.CreateSnapshot(ctx, "s")
	sv, _ := src.SnapshotView("s")
	drive := newTape(t, 0, 1)
	dumpToTape(t, sv, drive, 0, nil)

	dst := newFS(t, 8192)
	dst.WriteFile(ctx, "/shared/both.txt", []byte("a much longer local version"), 0600)
	dst.WriteFile(ctx, "/shared/local.txt", []byte("local"), 0644)
	dst.WriteFile(ctx, "/unrelated/keep.txt", []byte("keep"), 0644)
	av := dst.ActiveView()
	shared, _ := av.Namei(ctx, "/shared")
	both, _ := av.Namei(ctx, "/shared/both.txt")

	stats := restoreFromTape(t, dst, drive)
	if stats.DirsCreated != 1 || stats.Deleted != 0 {
		t.Fatalf("made %d directories and deleted %d entries, want 1 (/new) and 0", stats.DirsCreated, stats.Deleted)
	}
	for path, want := range map[string]string{
		"/shared/from-dump.txt": "dump", "/shared/both.txt": "short", "/new/file.txt": "new",
		"/shared/local.txt": "local", "/unrelated/keep.txt": "keep",
	} {
		if got, err := av.ReadFile(ctx, path); err != nil || string(got) != want {
			t.Errorf("%s = %q, %v; want %q", path, got, err, want)
		}
	}
	if ino, _ := av.Namei(ctx, "/shared"); ino != shared {
		t.Errorf("/shared is inode %d, was %d: the existing directory was not adopted", ino, shared)
	}
	if ino, _ := av.Namei(ctx, "/shared/both.txt"); ino != both {
		t.Errorf("/shared/both.txt is inode %d, was %d: the existing file was not adopted", ino, both)
	}
	if err := dst.MustCheck(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalLevels0to9(t *testing.T) {
	dates := NewDumpDates()
	dates.Record("fs", 0, 100)
	dates.Record("fs", 3, 200)
	dates.Record("fs", 5, 300)
	// Base for level 5 re-dump: latest among levels < 5 = level 3 at 200.
	if got := dates.Base("fs", 5); got != 200 {
		t.Fatalf("Base(5) = %d, want 200", got)
	}
	// Base for level 9: latest among all lower = level 5 at 300.
	if got := dates.Base("fs", 9); got != 300 {
		t.Fatalf("Base(9) = %d, want 300", got)
	}
	// Recording a new level-1 dump invalidates deeper levels.
	dates.Record("fs", 1, 400)
	if got := dates.Base("fs", 2); got != 400 {
		t.Fatalf("Base(2) = %d, want 400", got)
	}
	if got := dates.Base("fs", 9); got != 400 {
		t.Fatalf("Base(9) after shallow dump = %d, want 400", got)
	}
	if got := dates.Base("fs", 0); got != 0 {
		t.Fatalf("Base(0) = %d, want 0", got)
	}
	if got := dates.Base("unknown", 5); got != 0 {
		t.Fatalf("Base(unknown) = %d, want 0", got)
	}
}

func TestHardLinksSurviveDumpRestore(t *testing.T) {
	src := newFS(t, 4096)
	ino, _ := src.WriteFile(ctx, "/a/original", []byte("linked data"), 0644)
	aIno, _ := src.ActiveView().Namei(ctx, "/a")
	src.MkdirAll(ctx, "/b", 0755)
	bIno, _ := src.ActiveView().Namei(ctx, "/b")
	src.Link(ctx, ino, aIno, "alias1")
	src.Link(ctx, ino, bIno, "alias2")
	src.CreateSnapshot(ctx, "s")
	sv, _ := src.SnapshotView("s")
	drive := newTape(t, 0, 1)
	stats := dumpToTape(t, sv, drive, 0, nil)
	if stats.FilesDumped != 1 {
		t.Fatalf("hard-linked file dumped %d times", stats.FilesDumped)
	}

	dst := newFS(t, 4096)
	rstats := restoreFromTape(t, dst, drive)
	if rstats.LinksMade != 2 {
		t.Fatalf("LinksMade = %d, want 2", rstats.LinksMade)
	}
	// All three names must reference the same inode.
	v := dst.ActiveView()
	i1, _ := v.Namei(ctx, "/a/original")
	i2, _ := v.Namei(ctx, "/a/alias1")
	i3, _ := v.Namei(ctx, "/b/alias2")
	if i1 != i2 || i1 != i3 {
		t.Fatalf("links point at %d, %d, %d", i1, i2, i3)
	}
	st, _ := dst.GetInode(ctx, i1)
	if st.Nlink != 3 {
		t.Fatalf("nlink = %d, want 3", st.Nlink)
	}
}

func TestSparseFilesSurviveDumpRestore(t *testing.T) {
	src := newFS(t, 8192)
	ino, _ := src.Create(ctx, wafl.RootIno, "sparse", 0644, 0, 0)
	src.Write(ctx, ino, 0, []byte("head"))
	src.Write(ctx, ino, 50*wafl.BlockSize, []byte("tail"))
	src.CreateSnapshot(ctx, "s")
	sv, _ := src.SnapshotView("s")
	drive := newTape(t, 0, 1)
	stats := dumpToTape(t, sv, drive, 0, nil)
	// The dump must not store the hole: ~51 blocks of file, ~2 with data.
	if stats.BytesWritten > 40*1024 {
		t.Fatalf("sparse dump wrote %d bytes; holes not elided", stats.BytesWritten)
	}

	dst := newFS(t, 8192)
	restoreFromTape(t, dst, drive)
	got, err := dst.ActiveView().ReadFile(ctx, "/sparse")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := sv.ReadFile(ctx, "/sparse")
	if !bytes.Equal(got, want) {
		t.Fatal("sparse content mismatch")
	}
	// The restored file must also be physically sparse.
	dIno, _ := dst.ActiveView().Namei(ctx, "/sparse")
	dst.CP(ctx)
	mid, err := dst.ActiveView().BlockAt(ctx, dIno, 25)
	if err != nil {
		t.Fatal(err)
	}
	if mid != 0 {
		t.Fatal("restored file lost its hole")
	}
}

func TestMultiVolumeDumpRestore(t *testing.T) {
	src := newFS(t, 8192)
	workload.Generate(ctx, src, workload.Spec{Seed: 6, Files: 40, DirFanout: 8, MeanFileSize: 32 << 10})
	src.CreateSnapshot(ctx, "s")
	sv, _ := src.SnapshotView("s")
	// Small cartridges force spanning.
	drive := newTape(t, 400<<10, 24)
	dumpToTape(t, sv, drive, 0, nil)
	if drive.Loaded().Label == "a" {
		t.Fatal("dump never changed cartridges")
	}

	// Restore: rewind the stacker by cycling to cartridge "a".
	for drive.Loaded().Label != "a" {
		if err := drive.Load(nil); err != nil {
			t.Fatal(err)
		}
	}
	dst := newFS(t, 8192)
	drive.Rewind(nil)
	stats, err := Restore(ctx, RestoreOptions{
		FS: dst, Source: NewDriveSource(drive, nil, 24), KernelIntegrated: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FilesRestored == 0 {
		t.Fatal("nothing restored")
	}
	assertTreesEqual(t, digests(t, sv, "/"), digests(t, dst.ActiveView(), "/"))
}

func TestRestoreResilienceToTapeCorruption(t *testing.T) {
	src := newFS(t, 8192)
	workload.Generate(ctx, src, workload.Spec{Seed: 7, Files: 30, DirFanout: 6, MeanFileSize: 4 << 10})
	src.CreateSnapshot(ctx, "s")
	sv, _ := src.SnapshotView("s")
	drive := newTape(t, 0, 1)
	stats := dumpToTape(t, sv, drive, 0, nil)

	// Corrupt a record in the middle of the file section.
	cart := drive.Loaded()
	if !cart.CorruptRecord(cart.Records() * 2 / 3) {
		t.Fatal("no record to corrupt")
	}

	dst := newFS(t, 8192)
	rstats := restoreFromTape(t, dst, drive)
	// Most files must survive ("a minor tape corruption will usually
	// affect only that single file").
	if rstats.FilesRestored < stats.FilesDumped-8 {
		t.Fatalf("only %d/%d files survived corruption", rstats.FilesRestored, stats.FilesDumped)
	}
	if rstats.SkippedUnits == 0 {
		t.Fatal("reader claims nothing was skipped")
	}
	if err := dst.MustCheck(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestUserLevelVsKernelRestorePermissions(t *testing.T) {
	// User-level mode defers directory permissions to the final pass;
	// both modes must end with identical trees.
	src := newFS(t, 4096)
	src.MkdirAll(ctx, "/locked", 0500)
	lockedIno, _ := src.ActiveView().Namei(ctx, "/locked")
	mode := uint32(0755)
	src.SetAttr(ctx, lockedIno, wafl.Attr{Mode: &mode})
	src.WriteFile(ctx, "/locked/inner.txt", []byte("x"), 0400)
	m2 := uint32(0500)
	src.SetAttr(ctx, lockedIno, wafl.Attr{Mode: &m2})
	src.CreateSnapshot(ctx, "s")
	sv, _ := src.SnapshotView("s")
	drive := newTape(t, 0, 1)
	dumpToTape(t, sv, drive, 0, nil)

	for _, kernel := range []bool{true, false} {
		dst := newFS(t, 4096)
		restoreFromTape(t, dst, drive, func(o *RestoreOptions) { o.KernelIntegrated = kernel })
		st, err := dst.ActiveView().Stat(ctx, "/locked")
		if err != nil {
			t.Fatalf("kernel=%v: %v", kernel, err)
		}
		if st.Mode&07777 != 0500 {
			t.Fatalf("kernel=%v: dir mode %o, want 0500", kernel, st.Mode&07777)
		}
		if _, err := dst.ActiveView().ReadFile(ctx, "/locked/inner.txt"); err != nil {
			t.Fatalf("kernel=%v: inner file: %v", kernel, err)
		}
	}
}

func TestDumpStatsAndMaps(t *testing.T) {
	src := newFS(t, 4096)
	src.WriteFile(ctx, "/f1", []byte("1"), 0644)
	src.WriteFile(ctx, "/f2", []byte("2"), 0644)
	src.RemovePath(ctx, "/f1") // leaves a free inode slot
	src.CreateSnapshot(ctx, "s")
	sv, _ := src.SnapshotView("s")
	drive := newTape(t, 0, 1)
	stats := dumpToTape(t, sv, drive, 0, nil)
	if stats.FilesDumped != 1 {
		t.Fatalf("FilesDumped = %d, want 1", stats.FilesDumped)
	}
	if stats.InodesMapped < 2 { // root + f2
		t.Fatalf("InodesMapped = %d", stats.InodesMapped)
	}
	if stats.Date <= 0 {
		t.Fatal("dump date not stamped")
	}
}

func TestEmptyFSDumpRestore(t *testing.T) {
	src := newFS(t, 512)
	src.CreateSnapshot(ctx, "s")
	sv, _ := src.SnapshotView("s")
	drive := newTape(t, 0, 1)
	stats := dumpToTape(t, sv, drive, 0, nil)
	if stats.DirsDumped != 1 {
		t.Fatalf("DirsDumped = %d, want 1 (root)", stats.DirsDumped)
	}
	dst := newFS(t, 512)
	rstats := restoreFromTape(t, dst, drive)
	if rstats.FilesRestored != 0 {
		t.Fatalf("restored %d files from empty dump", rstats.FilesRestored)
	}
}

func TestIncrementalSyncSparesUntouchedDirectories(t *testing.T) {
	// Regression: an incremental omits unchanged directories, and
	// applying it with SyncDeletes must not treat their absence from
	// the tape as "everything inside was deleted".
	src := newFS(t, 8192)
	dates := NewDumpDates()
	src.WriteFile(ctx, "/untouched/deep/keeper.txt", []byte("survives"), 0644)
	src.WriteFile(ctx, "/busy/worker.txt", []byte("v1"), 0644)
	src.CreateSnapshot(ctx, "l0")
	sv0, _ := src.SnapshotView("l0")
	tape0 := newTape(t, 0, 1)
	dumpToTape(t, sv0, tape0, 0, dates)

	// Change only /busy.
	src.WriteFile(ctx, "/busy/worker.txt", []byte("v2"), 0644)
	src.RemovePath(ctx, "/busy/worker.txt")
	src.WriteFile(ctx, "/busy/other.txt", []byte("new"), 0644)
	src.CreateSnapshot(ctx, "l1")
	sv1, _ := src.SnapshotView("l1")
	tape1 := newTape(t, 0, 1)
	dumpToTape(t, sv1, tape1, 1, dates)

	dst := newFS(t, 8192)
	restoreFromTape(t, dst, tape0)
	restoreFromTape(t, dst, tape1, func(o *RestoreOptions) { o.SyncDeletes = true })

	got, err := dst.ActiveView().ReadFile(ctx, "/untouched/deep/keeper.txt")
	if err != nil || string(got) != "survives" {
		t.Fatalf("untouched dir damaged by incremental sync: %q, %v", got, err)
	}
	if _, err := dst.ActiveView().ReadFile(ctx, "/busy/worker.txt"); err == nil {
		t.Fatal("deleted file survived the sync")
	}
	assertTreesEqual(t, digests(t, sv1, "/"), digests(t, dst.ActiveView(), "/"))
}
