package chaos

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/tape"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// ParallelScenario drives one drive of an N-drive parallel dump
// offline mid-stream with a persistent fault. The property under test
// is the parallel pipeline's isolation contract: sibling shards run to
// completion, the faulted shard comes back with a per-shard resume
// checkpoint, a Dump resuming from that checkpoint redumps only that
// slice onto a replacement drive, and the salvaged torn stream plus the
// continuation plus the sibling streams restore byte-identically.
type ParallelScenario struct {
	Seed   int64
	Engine Engine
	// Drives is the parallel fan-out width (default 4). The faulted
	// drive index is seed-derived.
	Drives int
	// OfflineAfterRecords arms the persistent fault: the chosen drive
	// latches offline after that many tape records. Defaults are
	// engine-specific (10 logical, 5 physical — image streams pack far
	// more data per record) so the fault usually lands after the first
	// durable checkpoint.
	OfflineAfterRecords int

	Files           int
	MeanFileSize    int
	CheckpointEvery int // files (logical) or blocks (physical)
}

// ParallelReport is the outcome of a ParallelScenario.
type ParallelReport struct {
	Engine  Engine
	Seed    int64
	Faulted int // drive index that went offline

	// Siblings counts shards that completed despite the fault
	// (invariant: Drives-1).
	Siblings int
	// Resumed is true when the torn shard carried a durable checkpoint
	// with real progress (at least one file or block on media), so the
	// continuation dump skipped work instead of redumping the shard.
	Resumed bool
	// Skipped is what the resume skipped: files (logical) or blocks
	// (physical).
	Skipped int

	Identical bool
	DiffPaths []string
}

// RunParallel executes one parallel-shard-fault scenario. An error
// means the scenario could not be evaluated; callers check
// Report.Identical and Report.Siblings for the invariant.
func RunParallel(ctx context.Context, s ParallelScenario) (*ParallelReport, error) {
	if s.Drives <= 1 {
		s.Drives = 4
	}
	if s.OfflineAfterRecords <= 0 {
		if s.Engine == Physical {
			s.OfflineAfterRecords = 4
		} else {
			s.OfflineAfterRecords = 10
		}
	}
	if s.Files <= 0 {
		s.Files = 48
	}
	if s.MeanFileSize <= 0 {
		s.MeanFileSize = 12 << 10
	}
	if s.CheckpointEvery <= 0 {
		if s.Engine == Physical {
			s.CheckpointEvery = 16
		} else {
			s.CheckpointEvery = 2
		}
	}
	rep := &ParallelReport{Engine: s.Engine, Seed: s.Seed, Faulted: int(s.Seed) % s.Drives}

	// Source filesystem: clean storage — the faults in this scenario
	// live on the tape side only.
	const blocks = 16384
	dev := storage.NewMemDevice(blocks)
	fs, err := wafl.Mkfs(ctx, dev, nil, wafl.Options{})
	if err != nil {
		return nil, err
	}
	if _, err := workload.Generate(ctx, fs, workload.Spec{
		Seed: s.Seed, Files: s.Files, DirFanout: 5, MeanFileSize: s.MeanFileSize,
		Symlinks: s.Files / 10, Hardlinks: s.Files / 15,
	}); err != nil {
		return nil, err
	}
	if err := fs.CreateSnapshot(ctx, "par"); err != nil {
		return nil, err
	}
	view, err := fs.SnapshotView("par")
	if err != nil {
		return nil, err
	}
	want, err := workload.TreeDigest(ctx, view, "/")
	if err != nil {
		return nil, err
	}

	drives := make([]*tape.Drive, s.Drives)
	for k := range drives {
		drives[k] = tape.NewDrive(nil, fmt.Sprintf("t%d", k), tape.DefaultParams())
		drives[k].AddCartridges(tape.NewCartridge(fmt.Sprintf("c%d", k)))
		if err := drives[k].Load(nil); err != nil {
			return nil, err
		}
	}
	drives[rep.Faulted].InjectFaults(tape.FaultConfig{OfflineAfterRecords: s.OfflineAfterRecords})

	cont := tape.NewDrive(nil, "cont", tape.DefaultParams())
	cont.AddCartridges(tape.NewCartridge("cc"))
	if err := cont.Load(nil); err != nil {
		return nil, err
	}

	var restored *wafl.View
	if s.Engine == Logical {
		restored, err = runParallelLogical(ctx, s, rep, view, drives, cont)
	} else {
		restored, err = runParallelPhysical(ctx, s, rep, fs, dev, drives, cont)
	}
	if err != nil {
		return nil, err
	}
	got, err := workload.TreeDigest(ctx, restored, "/")
	if err != nil {
		return nil, err
	}
	for p, e := range want {
		if g, ok := got[p]; !ok || g != e {
			rep.DiffPaths = append(rep.DiffPaths, p)
		}
	}
	for p := range got {
		if _, ok := want[p]; !ok {
			rep.DiffPaths = append(rep.DiffPaths, p)
		}
	}
	sort.Strings(rep.DiffPaths)
	rep.Identical = len(rep.DiffPaths) == 0
	return rep, nil
}

// checkShards verifies the isolation contract on the failed dump's
// per-shard outcomes and returns the torn shard's checkpoint identity
// check result.
func checkShards(rep *ParallelReport, nShards int, shardErr func(k int) error, shardBytes func(k int) int64) error {
	for k := 0; k < nShards; k++ {
		if k == rep.Faulted {
			if shardErr(k) == nil {
				return fmt.Errorf("chaos: faulted shard %d reported success", k)
			}
			if !errors.Is(shardErr(k), tape.ErrOffline) {
				return fmt.Errorf("chaos: faulted shard %d failed with %v, want offline", k, shardErr(k))
			}
			continue
		}
		if err := shardErr(k); err != nil {
			return fmt.Errorf("chaos: sibling shard %d failed too: %w", k, err)
		}
		if shardBytes(k) == 0 {
			return fmt.Errorf("chaos: sibling shard %d wrote nothing", k)
		}
		rep.Siblings++
	}
	return nil
}

func runParallelLogical(ctx context.Context, s ParallelScenario, rep *ParallelReport, view *wafl.View, drives []*tape.Drive, cont *tape.Drive) (*wafl.View, error) {
	sinks := make([]stream.Sink, len(drives))
	for k := range sinks {
		sinks[k] = &logical.DriveSink{Drive: drives[k]}
	}
	stats, err := logical.Dump(ctx, logical.DumpOptions{
		View: view, Label: "chaos-par", ReadAhead: 8, Readers: 2,
		Sinks: sinks, CheckpointEvery: s.CheckpointEvery,
	})
	if err == nil {
		return nil, fmt.Errorf("chaos: fault never fired (stream too short for OfflineAfterRecords=%d)", s.OfflineAfterRecords)
	}
	if !errors.Is(err, tape.ErrOffline) {
		return nil, fmt.Errorf("chaos: parallel dump failed outside the armed fault: %w", err)
	}
	if err := checkShards(rep, len(drives),
		func(k int) error { return stats.ShardResults[k].Err },
		func(k int) int64 { return stats.ShardResults[k].BytesWritten }); err != nil {
		return nil, err
	}

	// Operator swaps in the replacement drive; the continuation dump
	// resumes from the torn shard's checkpoint, which names its slice
	// of the file list.
	drives[rep.Faulted].SetOffline(false)
	drives[rep.Faulted].Flush(nil)
	ckpt := stats.ShardResults[rep.Faulted].Checkpoint
	// A checkpoint with LastIno 0 means the fault landed before the
	// first Phase IV file was durably synced: the torn stream may tear
	// inside the directory section (which salvage cannot parse) and
	// the continuation redumps the whole shard, so the partial stream
	// is discarded rather than salvaged.
	rep.Resumed = ckpt.LastIno > 0
	stats2, err := logical.Dump(ctx, logical.DumpOptions{
		View: view, Label: "chaos-par", ReadAhead: 8,
		Sink: &logical.DriveSink{Drive: cont}, Resume: ckpt, CheckpointEvery: s.CheckpointEvery,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: resuming torn shard: %w", err)
	}
	rep.Skipped = stats2.FilesSkipped
	cont.Flush(nil)

	// Restore: the complete sibling streams, the torn stream in
	// salvage mode (only useful if the resume skipped past its files),
	// then the continuation.
	dst, err := wafl.Mkfs(ctx, storage.NewMemDevice(16384), nil, wafl.Options{})
	if err != nil {
		return nil, err
	}
	apply := func(d *tape.Drive, salvage bool) error {
		d.Rewind(nil)
		_, err := logical.Restore(ctx, logical.RestoreOptions{
			FS: dst, Source: logical.NewDriveSource(d, nil, 1),
			KernelIntegrated: true, Salvage: salvage,
		})
		return err
	}
	for k, d := range drives {
		if k == rep.Faulted {
			if !rep.Resumed {
				continue // nothing durable before the fault; the continuation has it all
			}
			if err := apply(d, true); err != nil {
				return nil, fmt.Errorf("chaos: salvaging torn stream: %w", err)
			}
			continue
		}
		if err := apply(d, false); err != nil {
			return nil, fmt.Errorf("chaos: restoring sibling stream %d: %w", k, err)
		}
	}
	if err := apply(cont, false); err != nil {
		return nil, fmt.Errorf("chaos: restoring continuation stream: %w", err)
	}
	return dst.ActiveView(), nil
}

func runParallelPhysical(ctx context.Context, s ParallelScenario, rep *ParallelReport, fs *wafl.FS, dev storage.Device, drives []*tape.Drive, cont *tape.Drive) (*wafl.View, error) {
	sinks := make([]stream.Sink, len(drives))
	for k := range sinks {
		sinks[k] = &logical.DriveSink{Drive: drives[k]}
	}
	stats, err := physical.Dump(ctx, physical.DumpOptions{
		FS: fs, Vol: dev, SnapName: "par", Sinks: sinks,
		Readers: 2, ReadAhead: 2, CheckpointEvery: s.CheckpointEvery,
	})
	if err == nil {
		return nil, fmt.Errorf("chaos: fault never fired (stream too short for OfflineAfterRecords=%d)", s.OfflineAfterRecords)
	}
	if !errors.Is(err, tape.ErrOffline) {
		return nil, fmt.Errorf("chaos: parallel image dump failed outside the armed fault: %w", err)
	}
	if err := checkShards(rep, len(drives),
		func(k int) error { return stats.ShardResults[k].Err },
		func(k int) int64 { return stats.ShardResults[k].BytesWritten }); err != nil {
		return nil, err
	}

	drives[rep.Faulted].SetOffline(false)
	drives[rep.Faulted].Flush(nil)
	ckpt := stats.ShardResults[rep.Faulted].Checkpoint
	// BlocksDone 0 = nothing durable before the fault; the torn stream
	// is superseded entirely by the continuation and is discarded.
	rep.Resumed = ckpt.BlocksDone > 0
	stats2, err := physical.Dump(ctx, physical.DumpOptions{
		FS: fs, Vol: dev, SnapName: "par",
		Sink: &logical.DriveSink{Drive: cont}, Resume: ckpt, CheckpointEvery: s.CheckpointEvery,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: resuming torn image shard: %w", err)
	}
	rep.Skipped = stats2.BlocksSkipped
	cont.Flush(nil)

	// Restore: all first-pass streams in one salvage-tolerant parallel
	// call (the torn stream's tail is dropped), then the continuation.
	target := storage.NewMemDevice(dev.NumBlocks())
	srcs := make([]stream.Source, 0, len(drives))
	for k, d := range drives {
		if k == rep.Faulted && !rep.Resumed {
			continue // partial stream superseded entirely by the continuation
		}
		d.Rewind(nil)
		srcs = append(srcs, logical.NewDriveSource(d, nil, 1))
	}
	if _, err := physical.Restore(ctx, physical.RestoreOptions{
		Vol: target, Sources: srcs, Salvage: true,
	}); err != nil {
		return nil, fmt.Errorf("chaos: restoring faulted image set: %w", err)
	}
	cont.Rewind(nil)
	if _, err := physical.Restore(ctx, physical.RestoreOptions{
		Vol: target, Source: logical.NewDriveSource(cont, nil, 1),
	}); err != nil {
		return nil, fmt.Errorf("chaos: restoring image continuation: %w", err)
	}
	dst, err := wafl.Mount(ctx, target, nil, wafl.Options{})
	if err != nil {
		return nil, err
	}
	return dst.ActiveView(), nil
}
