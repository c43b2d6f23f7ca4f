package bench

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/physical"
	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// Config sizes an experiment. The paper ran 188 GB on 31 disks; we run
// the same code paths at laptop scale (tens of MB) — rates, ratios and
// utilizations are the comparison targets, not absolute hours.
type Config struct {
	// DataMB is the approximate dataset size in MiB.
	DataMB int
	// Seed drives the deterministic workload.
	Seed int64
	// AgeRounds is how much churn matures (fragments) the filesystem.
	AgeRounds int
	// Verify re-reads every restored tree and compares digests.
	Verify bool
	// Readers is the per-shard parallel reader count for the pipelined
	// dump engines in the Table 4/5 experiments; 0 means 3.
	Readers int
	// PipeDepth is the per-reader extent read-ahead depth of the
	// physical dump pipeline; 0 means 3. Depth 1 shows the spindle
	// plateau the read-ahead batching exists to break.
	PipeDepth int
	// Tweak, if set, adjusts the filer configuration (ablations).
	Tweak func(*core.FilerConfig)
}

// DefaultConfig returns the standard experiment scale.
func DefaultConfig() Config {
	return Config{DataMB: 48, Seed: 1999, AgeRounds: 6, Verify: true}
}

// tweaked returns c with t adjusting the filer configuration ahead of
// any tweak c already carries.
func (c Config) tweaked(t func(*core.FilerConfig)) Config {
	prev := c.Tweak
	c.Tweak = func(fc *core.FilerConfig) {
		t(fc)
		if prev != nil {
			prev(fc)
		}
	}
	return c
}

// readers/pipeDepth apply the Config defaults.
func (c Config) readers() int {
	if c.Readers > 0 {
		return c.Readers
	}
	return 3
}

func (c Config) pipeDepth() int {
	if c.PipeDepth > 0 {
		return c.PipeDepth
	}
	return 3
}

// buildFiler sizes a filer for cfg: the paper's home-volume shape
// (3 RAID groups × 10 data disks) with capacity ~4× the dataset.
func buildFiler(ctx context.Context, cfg Config, name string, drives int, env *sim.Env, cpu *sim.Station) (*core.Filer, error) {
	fc := core.DefaultConfig()
	fc.Name = name
	fc.Simulate = true
	fc.Env = env
	fc.CPU = cpu
	fc.TapeDrives = drives
	totalBlocks := cfg.DataMB << 20 / wafl.BlockSize * 4
	fc.BlocksPerDisk = totalBlocks / (fc.RaidGroups * fc.DataDisksPerGroup)
	if fc.BlocksPerDisk < 64 {
		fc.BlocksPerDisk = 64
	}
	if cfg.Tweak != nil {
		cfg.Tweak(&fc)
	}
	return core.NewFiler(ctx, fc)
}

// populate generates and ages cfg's dataset under prefix (the empty
// prefix fills the root). Population runs untimed: the experiment
// clock starts with the first measured operation.
func populate(ctx context.Context, f *core.Filer, cfg Config, prefix string, seedOff int64) error {
	// Mean file size matches the metadata-to-data ratio of the paper's
	// engineering dataset: directory mapping should cost a few percent
	// of the file pass, not a third of it.
	const mean = 64 << 10
	files := cfg.DataMB << 20 / mean
	spec := workload.Spec{
		Seed: cfg.Seed + seedOff, Files: files, DirFanout: 12,
		MeanFileSize: mean, Symlinks: files / 40, Hardlinks: files / 60,
		Prefix: prefix,
	}
	paths, err := workload.Generate(ctx, f.FS, spec)
	if err != nil {
		return err
	}
	_, err = workload.Age(ctx, f.FS, paths, workload.AgeSpec{
		Seed: cfg.Seed + seedOff + 7, Rounds: cfg.AgeRounds,
		ChurnPerRound: files / 3, MeanFileSize: mean, Prefix: prefix,
	})
	return err
}

// Result is the outcome of the four-operation experiment: a mature
// dataset backed up and restored with each strategy. Each operation
// carries its own stage rows; with several drives they are the windows
// across the parallel streams.
type Result struct {
	Drives    int
	DataBytes int64 // active data at dump time

	LogicalBackup   OpResult
	LogicalRestore  OpResult
	PhysicalBackup  OpResult
	PhysicalRestore OpResult
}

// Ops returns the four rows in the paper's Table 2 order.
func (r *Result) Ops() []OpResult {
	return []OpResult{r.LogicalBackup, r.LogicalRestore, r.PhysicalBackup, r.PhysicalRestore}
}

// RunBasic reproduces Tables 2 and 3: the four operations on a single
// tape drive each, following the paper's measured procedure — snapshot
// create and delete are timed stages of a dump, and the engines run
// their default pipeline.
func RunBasic(ctx context.Context, cfg Config) (*Result, error) {
	return fourOps(ctx, cfg, 1, true)
}

// RunParallel reproduces Tables 4 (drives=2) and 5 (drives=4) from a
// single invocation per operation: logical.Dump shards its Phase IV
// file list and physical.Dump its block set across `drives` sinks,
// each shard riding its own reader/writer pipeline (cfg's readers and
// read-ahead depth), and the parallel physical restore applies all the
// shard streams in one call. The paper could not do this for dump ("we
// cannot use multiple tape devices in parallel for a single dump due
// to the strictly linear format"); the sharded stream set removes that
// limit. Snapshots are taken outside the measured windows.
func RunParallel(ctx context.Context, cfg Config, drives int) (*Result, error) {
	return fourOps(ctx, cfg, drives, false)
}

// fourOps is the one experiment behind Tables 2-5, 7 and 14: logical
// backup to drives [0, drives) and physical backup to drives [drives,
// 2*drives), both of the aged filesystem, then logical restore onto
// the wiped filesystem and physical restore onto a fresh volume. basic
// selects RunBasic's procedure over RunParallel's.
func fourOps(ctx context.Context, cfg Config, drives int, basic bool) (*Result, error) {
	if drives < 1 {
		return nil, fmt.Errorf("bench: need at least one drive")
	}
	f, err := buildFiler(ctx, cfg, "eliot", 2*drives, nil, nil)
	if err != nil {
		return nil, err
	}
	if err := populate(ctx, f, cfg, "", 0); err != nil {
		return nil, err
	}
	if err := f.FS.CP(ctx); err != nil {
		return nil, err
	}
	res := &Result{Drives: drives, DataBytes: int64(f.FS.UsedBlocks()) * wafl.BlockSize}

	var wantDigest map[string]workload.Entry
	if cfg.Verify {
		if wantDigest, err = workload.TreeDigest(ctx, f.FS.ActiveView(), "/"); err != nil {
			return nil, err
		}
	}
	verify := func(op string, fs *wafl.FS) error {
		got, err := workload.TreeDigest(ctx, fs.ActiveView(), "/")
		if err != nil {
			return err
		}
		if diffs := workload.DiffDigests(wantDigest, got); len(diffs) > 0 {
			return fmt.Errorf("bench: %s verification failed: %s", op, diffs[0])
		}
		return nil
	}

	meters := metersFor(f)
	readers, depth := cfg.readers(), cfg.pipeDepth()
	if basic {
		readers, depth = 0, 0
	}

	// backup measures one dump of snapshot snap to drives [first,
	// first+drives). The cartridges are loaded before the first stage:
	// a cartridge change is 90 virtual seconds that belong to no
	// operation.
	backup := func(name, snap string, first int, dump opBody) (OpResult, error) {
		if !basic {
			if err := f.FS.CreateSnapshot(ctx, snap); err != nil {
				return OpResult{}, err
			}
		}
		op, err := measure(ctx, meters, name, func(c context.Context, rec *Recorder) (int64, error) {
			for i := 0; i < drives; i++ {
				if err := f.LoadTape(c, first+i); err != nil {
					return 0, err
				}
			}
			if basic {
				rec.Begin("Creating snapshot")
				if err := f.FS.CreateSnapshot(c, snap); err != nil {
					return 0, err
				}
				rec.End()
			}
			bytes, err := dump(c, rec)
			if err != nil || !basic {
				return bytes, err
			}
			rec.Begin("Deleting snapshot")
			return bytes, f.FS.DeleteSnapshot(c, snap)
		})
		if err == nil && !basic {
			err = f.FS.DeleteSnapshot(ctx, snap)
		}
		return op, err
	}

	res.LogicalBackup, err = backup("Logical Backup", "ldump", 0, func(c context.Context, rec *Recorder) (int64, error) {
		view, err := f.FS.SnapshotView("ldump")
		if err != nil {
			return 0, err
		}
		return logicalDump{readers: readers, rec: rec}.toTape(c, f, view, 0, drives)
	})
	if err != nil {
		return nil, err
	}

	// The physical backup dumps the same aged volume the logical backup
	// read, so how the logical restore happens to lay files out cannot
	// move the physical column.
	res.PhysicalBackup, err = backup("Physical Backup", "idump", drives, func(c context.Context, rec *Recorder) (int64, error) {
		rec.Begin("Dumping blocks")
		stats, err := physical.Dump(c, physical.DumpOptions{
			FS: f.FS, Vol: f.Vol, SnapName: "idump",
			Sinks: tapeSinks(c, f, drives, drives), Costs: f.Config.PhysCosts,
			Readers: readers, ReadAhead: depth,
		})
		if err != nil {
			return 0, err
		}
		flushTapes(c, f, drives, drives)
		rec.End()
		return stats.BytesWritten, nil
	})
	if err != nil {
		return nil, err
	}

	// Logical restore: wipe, then one restore per shard stream, all
	// started together. Every stream carries the full directory set;
	// whichever reaches a directory first makes it and the others adopt
	// it, and their file slices are disjoint.
	if err := f.Wipe(ctx); err != nil {
		return nil, err
	}
	running := make([]func() (OpResult, error), drives)
	for i := range running {
		running[i] = start(ctx, meters, "Logical Restore", func(c context.Context, rec *Recorder) (int64, error) {
			stats, err := f.LogicalRestore(c, i, "/", false, rec)
			if err != nil {
				return 0, err
			}
			return stats.BytesRead, nil
		})
	}
	f.Env.Run()
	streams := make([]OpResult, drives)
	for i := range running {
		if streams[i], err = running[i](); err != nil {
			return nil, err
		}
	}
	res.LogicalRestore = mergeOps("Logical Restore", streams)
	if cfg.Verify {
		if err := verify("logical restore", f.FS); err != nil {
			return nil, err
		}
	}

	// Physical restore: one call applies all the shard streams onto a
	// fresh volume of the same geometry.
	target, err := raid.Build(f.Env, "target", raid.Config{
		Groups:            f.Config.RaidGroups,
		DataDisksPerGroup: f.Config.DataDisksPerGroup,
		BlocksPerDisk:     f.Config.BlocksPerDisk,
		DiskParams:        f.Config.DiskParams,
	})
	if err != nil {
		return nil, err
	}
	target.RegisterMetrics(meters.Reg)
	res.PhysicalRestore, err = measure(ctx, meters, "Physical Restore", func(c context.Context, rec *Recorder) (int64, error) {
		srcs := make([]stream.Source, drives)
		for i := range srcs {
			f.Tapes[drives+i].Rewind(sim.ProcFrom(c))
			srcs[i] = f.Source(c, drives+i)
		}
		rec.Begin("Restoring blocks")
		stats, err := physical.Restore(c, physical.RestoreOptions{
			Vol: target, Sources: srcs, Costs: f.Config.PhysCosts,
		})
		if err != nil {
			return 0, err
		}
		target.Flush(c)
		return stats.BytesRead, nil
	})
	if err != nil {
		return nil, err
	}
	if cfg.Verify {
		restored, err := wafl.Mount(ctx, target, nil, wafl.Options{})
		if err != nil {
			return nil, fmt.Errorf("bench: mounting image-restored volume: %w", err)
		}
		if err := verify("image restore", restored); err != nil {
			return nil, err
		}
	}
	return res, nil
}
