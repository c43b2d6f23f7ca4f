package logical

import (
	"errors"
	"io"
	"testing"

	"repro/internal/nvram"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// truncatedSource delivers only the first n records, then fails like a
// drive losing the tape mid-restore.
type truncatedSource struct {
	inner stream.Source
	left  int
}

var errTapeJam = errors.New("simulated tape jam")

func (s *truncatedSource) ReadRecord() ([]byte, error) {
	if s.left <= 0 {
		return nil, errTapeJam
	}
	s.left--
	rec, err := s.inner.ReadRecord()
	if err != nil {
		return nil, io.EOF
	}
	return rec, nil
}

// TestRestoreIsRestartable backs the paper's footnote 2: "it is simple
// to restart a restore which is interrupted by a crash". A restore
// that dies partway (tape jam, then filer crash and NVRAM replay) is
// simply re-run from the beginning and must converge to the exact
// source tree.
func TestRestoreIsRestartable(t *testing.T) {
	src := newFS(t, 8192)
	workload.Generate(ctx, src, workload.Spec{Seed: 55, Files: 40, DirFanout: 6, MeanFileSize: 8 << 10, Hardlinks: 2})
	src.CreateSnapshot(ctx, "s")
	sv, _ := src.SnapshotView("s")
	drive := newTape(t, 0, 1)
	dumpToTape(t, sv, drive, 0, nil)

	dev := storage.NewMemDevice(8192)
	log := nvram.New(nil, nvram.Params{Size: 4 << 20})
	dst, err := wafl.Mkfs(ctx, dev, log, wafl.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// First attempt: the tape jams partway through the file section.
	drive.Rewind(nil)
	jam := &truncatedSource{inner: NewDriveSource(drive, nil, 0), left: drive.Loaded().Records() / 2}
	_, err = Restore(ctx, RestoreOptions{FS: dst, Source: jam, KernelIntegrated: true})
	if err == nil {
		t.Fatal("interrupted restore reported success")
	}

	// The filer then crashes; NVRAM replays whatever the partial
	// restore had staged.
	dst.Crash()
	dst, err = wafl.Mount(ctx, dev, log, wafl.Options{})
	if err != nil {
		t.Fatalf("remount after crash mid-restore: %v", err)
	}
	if err := dst.MustCheck(ctx); err != nil {
		t.Fatalf("filesystem inconsistent after interrupted restore: %v", err)
	}

	// Second attempt: rewind and re-run the whole restore.
	drive.Rewind(nil)
	if _, err := Restore(ctx, RestoreOptions{
		FS: dst, Source: NewDriveSource(drive, nil, 0), KernelIntegrated: true,
	}); err != nil {
		t.Fatalf("restarted restore: %v", err)
	}
	assertTreesEqual(t, digests(t, sv, "/"), digests(t, dst.ActiveView(), "/"))
	if err := dst.MustCheck(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRestartAtEveryCut runs the interruption at several points
// in the stream; the re-run must converge from any of them.
func TestRestoreRestartAtEveryCut(t *testing.T) {
	src := newFS(t, 4096)
	workload.Generate(ctx, src, workload.Spec{Seed: 56, Files: 15, DirFanout: 4, MeanFileSize: 4 << 10})
	src.CreateSnapshot(ctx, "s")
	sv, _ := src.SnapshotView("s")
	drive := newTape(t, 0, 1)
	dumpToTape(t, sv, drive, 0, nil)
	total := drive.Loaded().Records()

	for _, frac := range []int{1, 4, total * 3 / 4} {
		dst := newFS(t, 4096)
		drive.Rewind(nil)
		jam := &truncatedSource{inner: NewDriveSource(drive, nil, 0), left: frac}
		Restore(ctx, RestoreOptions{FS: dst, Source: jam, KernelIntegrated: true})

		drive.Rewind(nil)
		if _, err := Restore(ctx, RestoreOptions{
			FS: dst, Source: NewDriveSource(drive, nil, 0), KernelIntegrated: true,
		}); err != nil {
			t.Fatalf("cut at %d records: restart failed: %v", frac, err)
		}
		assertTreesEqual(t, digests(t, sv, "/"), digests(t, dst.ActiveView(), "/"))
	}
}
