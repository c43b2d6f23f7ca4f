package logical

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestVerifyCleanDump(t *testing.T) {
	src := newFS(t, 8192)
	workload.Generate(ctx, src, workload.Spec{Seed: 31, Files: 40, DirFanout: 6, MeanFileSize: 8 << 10, Symlinks: 2, Hardlinks: 2})
	src.CreateSnapshot(ctx, "s")
	sv, _ := src.SnapshotView("s")
	drive := newTape(t, 0, 1)
	stats := dumpToTape(t, sv, drive, 0, nil)

	drive.Rewind(nil)
	res, err := Verify(ctx, VerifyOptions{View: sv, Source: NewDriveSource(drive, nil, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Problems) != 0 {
		t.Fatalf("clean dump reported problems: %v", res.Problems[:min(3, len(res.Problems))])
	}
	if res.FilesChecked != stats.FilesDumped {
		t.Fatalf("checked %d files, dump wrote %d", res.FilesChecked, stats.FilesDumped)
	}
	if res.DirsChecked == 0 || res.BytesRead == 0 {
		t.Fatalf("suspicious verify stats: %+v", res)
	}
}

func TestVerifyDetectsPostDumpChanges(t *testing.T) {
	src := newFS(t, 8192)
	src.WriteFile(ctx, "/a.txt", []byte("original contents"), 0644)
	src.WriteFile(ctx, "/b.txt", []byte("stays the same"), 0644)
	src.WriteFile(ctx, "/doomed.txt", []byte("going away"), 0644)
	src.CreateSnapshot(ctx, "s")
	sv, _ := src.SnapshotView("s")
	drive := newTape(t, 0, 1)
	dumpToTape(t, sv, drive, 0, nil)

	// Verify against the *active* view after mutations: every change
	// must surface as a distinct problem.
	src.WriteFile(ctx, "/a.txt", []byte("tampered contents!"), 0644)
	src.RemovePath(ctx, "/doomed.txt")
	src.WriteFile(ctx, "/new.txt", []byte("added after dump"), 0644)

	drive.Rewind(nil)
	res, err := Verify(ctx, VerifyOptions{View: src.ActiveView(), Source: NewDriveSource(drive, nil, 0)})
	if err != nil {
		t.Fatal(err)
	}
	wantSubstrings := []string{"a.txt", "doomed.txt", "new.txt"}
	for _, want := range wantSubstrings {
		found := false
		for _, p := range res.Problems {
			if strings.Contains(p, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no problem mentions %q (got %v)", want, res.Problems)
		}
	}
}

func TestVerifyDetectsTapeCorruption(t *testing.T) {
	src := newFS(t, 8192)
	workload.Generate(ctx, src, workload.Spec{Seed: 32, Files: 20, DirFanout: 5, MeanFileSize: 8 << 10})
	src.CreateSnapshot(ctx, "s")
	sv, _ := src.SnapshotView("s")
	drive := newTape(t, 0, 1)
	dumpToTape(t, sv, drive, 0, nil)

	cart := drive.Loaded()
	if !cart.CorruptRecord(cart.Records() * 3 / 4) {
		t.Fatal("nothing to corrupt")
	}
	drive.Rewind(nil)
	res, err := Verify(ctx, VerifyOptions{View: sv, Source: NewDriveSource(drive, nil, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Problems) == 0 && res.SkippedUnits == 0 {
		t.Fatal("corrupted tape verified clean")
	}
}

func TestVerifySubtree(t *testing.T) {
	src := newFS(t, 4096)
	src.WriteFile(ctx, "/proj/keep.txt", []byte("x"), 0644)
	src.WriteFile(ctx, "/other/out.txt", []byte("y"), 0644)
	src.CreateSnapshot(ctx, "s")
	sv, _ := src.SnapshotView("s")
	drive := newTape(t, 0, 1)
	dumpToTape(t, sv, drive, 0, nil, func(o *DumpOptions) { o.Subtree = "/proj" })
	drive.Rewind(nil)
	res, err := Verify(ctx, VerifyOptions{View: sv, Source: NewDriveSource(drive, nil, 0), Subtree: "/proj"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Problems) != 0 {
		t.Fatalf("subtree verify: %v", res.Problems)
	}
	if res.FilesChecked != 1 {
		t.Fatalf("FilesChecked = %d, want 1", res.FilesChecked)
	}
}
