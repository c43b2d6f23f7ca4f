// Integration test: a multi-week filer "saga" exercising every
// subsystem together — workload churn, snapshots, crashes with NVRAM
// replay, logical incremental chains, image backup, disk failure with
// RAID reconstruction, mirroring, and single-file recovery — with
// digest verification at every step.
package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/logical"
	"repro/internal/nvram"
	"repro/internal/physical"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/vdev"
	"repro/internal/wafl"
	"repro/internal/workload"
)

func TestFilerSaga(t *testing.T) {
	ctx := context.Background()
	cfg := core.DefaultConfig()
	cfg.Name = "saga"
	cfg.Simulate = true
	cfg.TapeDrives = 4
	cfg.BlocksPerDisk = 1024
	filer, err := core.NewFiler(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fsck := func(stage string) {
		t.Helper()
		if err := filer.FS.MustCheck(ctx); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}

	// Week 1: users fill the filer.
	paths, err := workload.Generate(ctx, filer.FS, workload.Spec{
		Seed: 1, Files: 150, DirFanout: 10, MeanFileSize: 16 << 10, Symlinks: 5, Hardlinks: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	fsck("after generation")

	// Sunday night: level-0 logical dump to drive 0 and a full image
	// dump to drive 1, then verify both tapes.
	run := func(name string, fn func(c context.Context, p *sim.Proc) error) {
		t.Helper()
		var opErr error
		filer.Env.Spawn(name, func(p *sim.Proc) {
			opErr = fn(core.Proc(ctx, p), p)
		})
		filer.Env.Run()
		if opErr != nil {
			t.Fatalf("%s: %v", name, opErr)
		}
	}
	run("sunday-dumps", func(c context.Context, p *sim.Proc) error {
		if err := filer.LoadTape(c, 0); err != nil {
			return err
		}
		if err := filer.LoadTape(c, 1); err != nil {
			return err
		}
		if _, err := filer.LogicalDump(c, 0, 0, "", "sunday", nil); err != nil {
			return err
		}
		if _, err := filer.ImageDump(c, 1, "sunday-img", ""); err != nil {
			return err
		}
		return nil
	})
	run("verify-tapes", func(c context.Context, p *sim.Proc) error {
		filer.Tapes[0].Rewind(p)
		if err := filer.FS.CreateSnapshot(c, "verify-against"); err != nil {
			return err
		}
		defer filer.FS.DeleteSnapshot(c, "verify-against")
		sv, err := filer.FS.SnapshotView("verify-against")
		if err != nil {
			return err
		}
		vres, err := logical.Verify(c, logical.VerifyOptions{View: sv, Source: filer.Source(c, 0)})
		if err != nil {
			return err
		}
		if len(vres.Problems) != 0 {
			return fmt.Errorf("logical tape does not verify: %v", vres.Problems[0])
		}
		filer.Tapes[1].Rewind(p)
		if _, err := physical.VerifyStream(ctx, filer.Source(c, 1)); err != nil {
			return fmt.Errorf("image tape does not verify: %w", err)
		}
		return nil
	})

	// Monday: work happens, then the power fails mid-day. NVRAM replay
	// must recover everything since the last consistency point.
	mondayFile := "/monday/report.txt"
	if _, err := filer.FS.WriteFile(ctx, mondayFile, []byte("monday's numbers"), 0644); err != nil {
		t.Fatal(err)
	}
	if err := filer.FS.CP(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := filer.FS.WriteFile(ctx, "/monday/uncommitted.txt", []byte("in NVRAM only"), 0644); err != nil {
		t.Fatal(err)
	}
	filer.FS.Crash()
	remounted, err := wafl.Mount(ctx, filer.Vol, filer.NVRAM, wafl.Options{
		Costs: filer.Config.FSCosts, Env: filer.Env,
	})
	if err != nil {
		t.Fatalf("boot after power loss: %v", err)
	}
	filer.FS = remounted
	if _, err := filer.FS.ActiveView().ReadFile(ctx, "/monday/uncommitted.txt"); err != nil {
		t.Fatalf("NVRAM replay lost the uncommitted file: %v", err)
	}
	fsck("after crash recovery")

	// Tuesday: churn, then a level-1 incremental to drive 2.
	paths, err = workload.Age(ctx, filer.FS, paths, workload.AgeSpec{
		Seed: 2, Rounds: 2, ChurnPerRound: 40, MeanFileSize: 16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	run("tuesday-incremental", func(c context.Context, p *sim.Proc) error {
		if err := filer.LoadTape(c, 2); err != nil {
			return err
		}
		stats, err := filer.LogicalDump(c, 2, 1, "", "tuesday", nil)
		if err != nil {
			return err
		}
		if stats.BaseDate == 0 {
			return fmt.Errorf("incremental has no base date")
		}
		return nil
	})

	// Wednesday: a disk dies. RAID keeps serving; rebuild onto a spare.
	wantBefore, err := workload.TreeDigest(ctx, filer.FS.ActiveView(), "/")
	if err != nil {
		t.Fatal(err)
	}
	group := filer.Vol.Groups()[0]
	if err := group.FailDisk(3); err != nil {
		t.Fatal(err)
	}
	gotDegraded, err := workload.TreeDigest(ctx, filer.FS.ActiveView(), "/")
	if err != nil {
		t.Fatalf("degraded reads failed: %v", err)
	}
	if diffs := workload.DiffDigests(wantBefore, gotDegraded); len(diffs) > 0 {
		t.Fatalf("degraded mode corrupted data: %v", diffs[0])
	}
	spare := vdev.New(filer.Env, "spare", cfg.BlocksPerDisk, cfg.DiskParams)
	if err := group.Rebuild(ctx, spare); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	fsck("after disk rebuild")

	// Thursday: replicate to a standby volume — an image dump to drive
	// 3 applied to it — then fail over a file read to it.
	standby := storage.NewMemDevice(filer.Vol.NumBlocks())
	run("thursday-replicate", func(c context.Context, p *sim.Proc) error {
		if err := filer.LoadTape(c, 3); err != nil {
			return err
		}
		if _, err := filer.ImageDump(c, 3, "thursday", ""); err != nil {
			return err
		}
		filer.Tapes[3].Rewind(p)
		_, err := engine.RestoreSet(c, catalog.Image, engine.Target{Vol: standby, Costs: filer.Config.PhysCosts},
			[]stream.Source{filer.Source(c, 3)}, false)
		return err
	})
	replica, err := wafl.Mount(ctx, standby.Clone(), nil, wafl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sv, err := filer.FS.SnapshotView("thursday")
	if err != nil {
		t.Fatal(err)
	}
	wantSnap, _ := workload.TreeDigest(ctx, sv, "/")
	gotRep, _ := workload.TreeDigest(ctx, replica.ActiveView(), "/")
	if diffs := workload.DiffDigests(wantSnap, gotRep); len(diffs) > 0 {
		t.Fatalf("standby diverged: %v", diffs[0])
	}

	// Friday: a user deletes Monday's report; recover it from the
	// Tuesday incremental tape (single-file restore).
	wantReport, err := filer.FS.ActiveView().ReadFile(ctx, mondayFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := filer.FS.RemovePath(ctx, mondayFile); err != nil {
		t.Fatal(err)
	}
	run("friday-recovery", func(c context.Context, p *sim.Proc) error {
		filer.Tapes[2].Rewind(p)
		stats, err := logical.Restore(c, logical.RestoreOptions{
			FS:               filer.FS,
			Source:           filer.Source(c, 2),
			Files:            []string{"monday/report.txt"},
			KernelIntegrated: true,
		})
		if err != nil {
			return err
		}
		if stats.FilesRestored != 1 {
			return fmt.Errorf("restored %d files, want 1", stats.FilesRestored)
		}
		return nil
	})
	got, err := filer.FS.ActiveView().ReadFile(ctx, mondayFile)
	if err != nil || !bytes.Equal(got, wantReport) {
		t.Fatalf("recovered report wrong: %v", err)
	}
	fsck("after the week")
}

func TestSagaCrossToolRestore(t *testing.T) {
	// A dump taken by one filer restores on a filer with completely
	// different geometry and NVRAM sizing — the portability property.
	ctx := context.Background()
	srcCfg := core.DefaultConfig()
	srcCfg.Name = "big"
	srcCfg.BlocksPerDisk = 1024
	src, err := core.NewFiler(ctx, srcCfg)
	if err != nil {
		t.Fatal(err)
	}
	workload.Generate(ctx, src.FS, workload.Spec{Seed: 3, Files: 50, DirFanout: 6, MeanFileSize: 8 << 10})
	if _, err := src.FS.WriteFile(ctx, "/x/y/z.txt", []byte("travels"), 0644); err != nil {
		t.Fatal(err)
	}
	if err := src.LoadTape(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := src.LogicalDump(ctx, 0, 0, "", "xfer", nil); err != nil {
		t.Fatal(err)
	}

	dstCfg := core.FilerConfig{
		Name: "small", RaidGroups: 1, DataDisksPerGroup: 3, BlocksPerDisk: 4096,
		TapeDrives: 1, NVRAMParams: nvram.Params{Size: 1 << 20},
	}
	dst, err := core.NewFiler(ctx, dstCfg)
	if err != nil {
		t.Fatal(err)
	}
	dst.Tapes[0] = src.Tapes[0]
	if _, err := dst.LogicalRestore(ctx, 0, "/", false, nil); err != nil {
		t.Fatal(err)
	}
	got, err := dst.FS.ActiveView().ReadFile(ctx, "/x/y/z.txt")
	if err != nil || string(got) != "travels" {
		t.Fatalf("cross-geometry restore: %q, %v", got, err)
	}
	want, _ := workload.TreeDigest(ctx, src.FS.ActiveView(), "/")
	gotD, _ := workload.TreeDigest(ctx, dst.FS.ActiveView(), "/")
	if diffs := workload.DiffDigests(want, gotD); len(diffs) > 0 {
		t.Fatalf("trees differ: %v", diffs[0])
	}
}
