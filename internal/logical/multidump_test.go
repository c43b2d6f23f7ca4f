package logical

import (
	"math/rand"
	"testing"

	"repro/internal/wafl"
	"repro/internal/workload"
)

// TestTwoDumpsOnOneCartridge stores two dump streams one after the
// other on a single cartridge and restores each independently,
// positioned by the record index noted before it was written (as the
// catalog's MediaRef.Start does) — the operational pattern for small
// nightly dumps.
func TestTwoDumpsOnOneCartridge(t *testing.T) {
	src := newFS(t, 8192)
	src.WriteFile(ctx, "/first/one.txt", []byte("dump one"), 0644)
	src.CreateSnapshot(ctx, "d1")
	sv1, _ := src.SnapshotView("d1")

	drive := newTape(t, 0, 1)
	start1 := drive.Loaded().Index()
	dumpToTape(t, sv1, drive, 0, nil)
	start2 := drive.Loaded().Index()

	src.WriteFile(ctx, "/second/two.txt", []byte("dump two"), 0644)
	src.CreateSnapshot(ctx, "d2")
	sv2, _ := src.SnapshotView("d2")
	dumpToTape(t, sv2, drive, 0, nil)

	// Restore the first dump: no second/two.txt yet.
	dstA := newFS(t, 8192)
	drive.Rewind(nil)
	if err := drive.SpaceRecords(nil, start1); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(ctx, RestoreOptions{
		FS: dstA, Source: NewDriveSource(drive, nil, 0), KernelIntegrated: true,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := dstA.ActiveView().ReadFile(ctx, "/first/one.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := dstA.ActiveView().ReadFile(ctx, "/second/two.txt"); err == nil {
		t.Fatal("the first dump's restore leaked the second dump's contents")
	}

	// Restore the second dump: both files present.
	dstB := newFS(t, 8192)
	drive.Rewind(nil)
	if err := drive.SpaceRecords(nil, start2); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(ctx, RestoreOptions{
		FS: dstB, Source: NewDriveSource(drive, nil, 0), KernelIntegrated: true,
	}); err != nil {
		t.Fatal(err)
	}
	assertTreesEqual(t, digests(t, sv2, "/"), digests(t, dstB.ActiveView(), "/"))
}

// TestDumpRestorePropertyRandomTrees round-trips randomized filesystem
// states — sizes, depths, links, holes and churn all drawn from a
// seeded generator — and requires digest equality every time.
func TestDumpRestorePropertyRandomTrees(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		seed := int64(1000 + trial*37)
		r := rand.New(rand.NewSource(seed))
		src := newFS(t, 16384)
		spec := workload.Spec{
			Seed:         seed,
			Files:        r.Intn(60) + 10,
			DirFanout:    r.Intn(10) + 2,
			MeanFileSize: (r.Intn(24) + 2) << 10,
			Symlinks:     r.Intn(5),
			Hardlinks:    r.Intn(4),
		}
		paths, err := workload.Generate(ctx, src, spec)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if _, err := workload.Age(ctx, src, paths, workload.AgeSpec{
			Seed: seed + 1, Rounds: r.Intn(3) + 1, ChurnPerRound: len(paths) / 2,
			MeanFileSize: spec.MeanFileSize,
		}); err != nil {
			t.Fatalf("trial %d aging: %v", trial, err)
		}
		// A sparse oddball file in every trial.
		ino, _ := src.Create(ctx, wafl.RootIno, "sparse.odd", 0640, 3, 4)
		src.Write(ctx, ino, uint64(r.Intn(100)*4096), []byte("island"))

		if err := src.CreateSnapshot(ctx, "p"); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sv, _ := src.SnapshotView("p")
		drive := newTape(t, 0, 1)
		dumpToTape(t, sv, drive, 0, nil)

		dst := newFS(t, 16384)
		restoreFromTape(t, dst, drive)
		assertTreesEqual(t, digests(t, sv, "/"), digests(t, dst.ActiveView(), "/"))
		if err := dst.MustCheck(ctx); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
