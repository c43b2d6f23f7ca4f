package bench

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// ParallelResult is the outcome of a Table 4/5-style experiment:
// stage rows for each of the four operations, aggregated across the
// parallel streams.
type ParallelResult struct {
	Drives    int
	DataBytes int64

	LogicalBackup   OpResult
	LogicalRestore  OpResult
	PhysicalBackup  OpResult
	PhysicalRestore OpResult

	// Merged stage windows for the Table 4/5 layout.
	LogicalBackupStages   []*Stage
	LogicalRestoreStages  []*Stage
	PhysicalBackupStages  []*Stage
	PhysicalRestoreStages []*Stage
}

// RunParallel reproduces Tables 4 (drives=2) and 5 (drives=4) from a
// single invocation per operation: logical.Dump shards its Phase IV
// file list and physical.Dump its block set across `drives` sinks,
// each shard riding its own reader/writer pipeline, and the parallel
// physical restore applies all the shard streams in one call. The
// paper could not do this for dump ("we cannot use multiple tape
// devices in parallel for a single dump due to the strictly linear
// format"); the sharded stream set removes that limit.
func RunParallel(ctx context.Context, cfg Config, drives int) (*ParallelResult, error) {
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
	res := &ParallelResult{Drives: drives, DataBytes: int64(f.FS.UsedBlocks()) * wafl.BlockSize}

	var wantDigest map[string]workload.Entry
	if cfg.Verify {
		if wantDigest, err = workload.TreeDigest(ctx, f.FS.ActiveView(), "/"); err != nil {
			return nil, err
		}
	}
	meters := &Meters{Env: f.Env, CPU: f.CPU, Vols: []*raid.Volume{f.Vol}, Tapes: f.Tapes}

	// --- Parallel logical backup: ONE dump call drives all the tapes
	// (drives 0..drives-1), sharding the file list internally.
	if err := f.FS.CreateSnapshot(ctx, "ldump"); err != nil {
		return nil, err
	}
	view, _ := f.FS.SnapshotView("ldump")
	recLB := NewRecorder(meters)
	var lbErr error
	var lbBytes int64
	f.Env.Spawn("ldump", func(p *sim.Proc) {
		c := sim.WithProc(ctx, p)
		sinks := make([]stream.Sink, drives)
		for i := range sinks {
			if lbErr = f.LoadTape(c, i); lbErr != nil {
				return
			}
			sinks[i] = f.Sink(c, i)
		}
		stats, err := logical.Dump(c, logical.DumpOptions{
			View: view, Level: 0, Dates: f.Dates, FSID: "eliot",
			Sinks: sinks, Label: "par", ReadAhead: 16,
			Readers: cfg.readers(), Stages: recLB,
		})
		if err != nil {
			lbErr = err
			return
		}
		for i := 0; i < drives; i++ {
			f.Tapes[i].Flush(p)
		}
		lbBytes = stats.BytesWritten
	})
	f.Env.Run()
	if lbErr != nil {
		return nil, fmt.Errorf("bench: parallel logical dump: %w", lbErr)
	}
	if err := f.FS.DeleteSnapshot(ctx, "ldump"); err != nil {
		return nil, err
	}
	res.LogicalBackupStages = recLB.Stages
	res.LogicalBackup = summarize("Logical Backup", recLB, lbBytes)

	// --- Parallel logical restore: wipe, then one restore per shard
	// stream. Stream 0 goes first alone — every stream carries the full
	// directory set, so its directory pass builds the whole skeleton
	// and the concurrent siblings only map existing directories (their
	// file slices are disjoint, so no name is created twice).
	if err := f.Wipe(ctx); err != nil {
		return nil, err
	}
	recs := make([]*Recorder, drives)
	errs := make([]error, drives)
	var bytesTotal int64
	for i := 0; i < drives; i++ {
		recs[i] = NewRecorder(meters)
	}
	restoreStream := func(i int) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			c := sim.WithProc(ctx, p)
			stats, err := f.LogicalRestore(c, i, "/", false, recs[i])
			if err != nil {
				errs[i] = err
				return
			}
			bytesTotal += stats.BytesRead
		}
	}
	f.Env.Spawn("lrest0", restoreStream(0))
	f.Env.Run()
	if errs[0] != nil {
		return nil, fmt.Errorf("bench: parallel logical restore: %w", errs[0])
	}
	for i := 1; i < drives; i++ {
		f.Env.Spawn(fmt.Sprintf("lrest%d", i), restoreStream(i))
	}
	f.Env.Run()
	for _, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("bench: parallel logical restore: %w", e)
		}
	}
	res.LogicalRestoreStages = mergeStages(recs)
	res.LogicalRestore = opFromStages("Logical Restore", res.LogicalRestoreStages, bytesTotal)
	if cfg.Verify {
		got, err := workload.TreeDigest(ctx, f.FS.ActiveView(), "/")
		if err != nil {
			return nil, err
		}
		if diffs := workload.DiffDigests(wantDigest, got); len(diffs) > 0 {
			return nil, fmt.Errorf("bench: parallel logical restore verification: %s", diffs[0])
		}
	}

	// --- Parallel physical backup: ONE dump call shards the block set
	// across drives drives..2*drives-1, with read-ahead batching on the
	// spindles.
	if err := f.FS.CreateSnapshot(ctx, "idump"); err != nil {
		return nil, err
	}
	recPB := NewRecorder(meters)
	var pbErr error
	var pbBytes int64
	f.Env.Spawn("idump", func(p *sim.Proc) {
		c := sim.WithProc(ctx, p)
		sinks := make([]stream.Sink, drives)
		for i := range sinks {
			if pbErr = f.LoadTape(c, drives+i); pbErr != nil {
				return
			}
			sinks[i] = f.Sink(c, drives+i)
		}
		recPB.Begin("Dumping blocks")
		stats, err := physical.Dump(c, physical.DumpOptions{
			FS: f.FS, Vol: f.Vol, SnapName: "idump",
			Sinks: sinks, Costs: f.Config.PhysCosts,
			Readers: cfg.readers(), ReadAhead: cfg.pipeDepth(),
		})
		if err != nil {
			pbErr = err
			return
		}
		for i := 0; i < drives; i++ {
			f.Tapes[drives+i].Flush(p)
		}
		recPB.End()
		pbBytes = stats.BytesWritten
	})
	f.Env.Run()
	if pbErr != nil {
		return nil, fmt.Errorf("bench: parallel image dump: %w", pbErr)
	}
	res.PhysicalBackupStages = recPB.Stages
	res.PhysicalBackup = summarize("Physical Backup", recPB, pbBytes)

	// --- Parallel physical restore: ONE call applies all the shard
	// streams onto a fresh volume.
	target, err := raid.Build(f.Env, "target", raid.Config{
		Groups:            f.Config.RaidGroups,
		DataDisksPerGroup: f.Config.DataDisksPerGroup,
		BlocksPerDisk:     f.Config.BlocksPerDisk,
		DiskParams:        f.Config.DiskParams,
	})
	if err != nil {
		return nil, err
	}
	meters.Vols = append(meters.Vols, target)
	recPR := NewRecorder(meters)
	var prErr error
	var prBytes int64
	f.Env.Spawn("irest", func(p *sim.Proc) {
		c := sim.WithProc(ctx, p)
		srcs := make([]stream.Source, drives)
		for i := range srcs {
			f.Tapes[drives+i].Rewind(p)
			srcs[i] = f.Source(c, drives+i)
		}
		recPR.Begin("Restoring blocks")
		stats, err := physical.Restore(c, physical.RestoreOptions{
			Vol: target, Sources: srcs, Costs: f.Config.PhysCosts,
		})
		if err != nil {
			prErr = err
			return
		}
		target.Flush(c)
		recPR.End()
		prBytes = stats.BytesRead
	})
	f.Env.Run()
	if prErr != nil {
		return nil, fmt.Errorf("bench: parallel image restore: %w", prErr)
	}
	res.PhysicalRestoreStages = recPR.Stages
	res.PhysicalRestore = summarize("Physical Restore", recPR, prBytes)
	if cfg.Verify {
		restored, err := wafl.Mount(ctx, target, nil, wafl.Options{})
		if err != nil {
			return nil, fmt.Errorf("bench: mounting sharded image restore: %w", err)
		}
		got, err := workload.TreeDigest(ctx, restored.ActiveView(), "/")
		if err != nil {
			return nil, err
		}
		if diffs := workload.DiffDigests(wantDigest, got); len(diffs) > 0 {
			return nil, fmt.Errorf("bench: sharded image restore verification: %s", diffs[0])
		}
	}
	return res, nil
}

// opFromStages builds an OpResult over merged stage windows.
func opFromStages(name string, stages []*Stage, bytes int64) OpResult {
	if len(stages) == 0 {
		return OpResult{Name: name, Bytes: bytes}
	}
	total := Stage{Begin: stages[0].Begin, End: stages[0].End}
	for _, s := range stages[1:] {
		if s.Begin.T < total.Begin.T {
			total.Begin = s.Begin
		}
		if s.End.T > total.End.T {
			total.End = s.End
		}
	}
	return OpResult{
		Name:    name,
		Elapsed: total.Elapsed(),
		Bytes:   bytes,
		Stages:  stages,
		CPUUtil: total.CPUUtil(),
	}
}

// ConcurrentVolumesResult reproduces §5.1's observation that dumping
// two volumes concurrently to separate drives does not slow either
// down ("each executed in exactly the same amount of time as they had
// when executing in isolation").
type ConcurrentVolumesResult struct {
	HomeIsolated, RlseIsolated     OpResult
	HomeConcurrent, RlseConcurrent OpResult
}

// RunConcurrentVolumes builds one filer head (one CPU) serving two
// volumes (home and rlse), measures a logical dump of each volume in
// isolation and then both concurrently.
func RunConcurrentVolumes(ctx context.Context, cfg Config) (*ConcurrentVolumesResult, error) {
	env := sim.NewEnv()
	cpu := sim.NewStation(env, "filer/cpu", 0)
	mk := func(name string, groups int, seed int64) (*core.Filer, error) {
		c := cfg
		c.Tweak = func(fc *core.FilerConfig) {
			fc.RaidGroups = groups
			if cfg.Tweak != nil {
				cfg.Tweak(fc)
			}
		}
		f, err := buildFiler(ctx, c, name, 1, env, cpu)
		if err != nil {
			return nil, err
		}
		if err := populate(ctx, f, c, "", seed); err != nil {
			return nil, err
		}
		return f, f.FS.CP(ctx)
	}
	home, err := mk("home", 3, 0)
	if err != nil {
		return nil, err
	}
	rlse, err := mk("rlse", 2, 500)
	if err != nil {
		return nil, err
	}

	dump := func(f *core.Filer, rec *Recorder, snap string, bytes *int64) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			c := sim.WithProc(ctx, p)
			if err := f.LoadTape(c, 0); err != nil {
				return
			}
			if err := f.FS.CreateSnapshot(c, snap); err != nil {
				return
			}
			view, _ := f.FS.SnapshotView(snap)
			rec.Begin("Dump")
			stats, err := dumpLogical(c, f, view, 0, nil)
			if err != nil {
				return
			}
			*bytes = stats.BytesWritten
			rec.End()
			f.FS.DeleteSnapshot(c, snap)
		}
	}

	res := &ConcurrentVolumesResult{}
	mHome := &Meters{Env: env, CPU: cpu, Vols: []*raid.Volume{home.Vol}, Tapes: home.Tapes}
	mRlse := &Meters{Env: env, CPU: cpu, Vols: []*raid.Volume{rlse.Vol}, Tapes: rlse.Tapes}

	// Isolated runs.
	var bH, bR int64
	rec := NewRecorder(mHome)
	env.Spawn("home-iso", dump(home, rec, "iso", &bH))
	env.Run()
	res.HomeIsolated = summarize("home (isolated)", rec, bH)

	rec = NewRecorder(mRlse)
	env.Spawn("rlse-iso", dump(rlse, rec, "iso", &bR))
	env.Run()
	res.RlseIsolated = summarize("rlse (isolated)", rec, bR)

	// Concurrent run.
	recH, recR := NewRecorder(mHome), NewRecorder(mRlse)
	env.Spawn("home-con", dump(home, recH, "con", &bH))
	env.Spawn("rlse-con", dump(rlse, recR, "con", &bR))
	env.Run()
	res.HomeConcurrent = summarize("home (concurrent)", recH, bH)
	res.RlseConcurrent = summarize("rlse (concurrent)", recR, bR)
	return res, nil
}

// ScalingPoint is one row of the §5.2/§5.3 scaling summary.
type ScalingPoint struct {
	Drives      int
	LogicalGBph float64
	PhysGBph    float64
	LogicalPer  float64
	PhysPer     float64
	LogicalCPU  float64
	PhysCPU     float64
}

// RunScaling sweeps 1, 2 and 4 drives and reports aggregate and
// per-tape backup throughput for both strategies — the paper's
// headline comparison (69.6 vs 110 GB/h at 4 drives).
func RunScaling(ctx context.Context, cfg Config, driveCounts []int) ([]ScalingPoint, error) {
	var out []ScalingPoint
	for _, n := range driveCounts {
		r, err := RunParallel(ctx, cfg, n)
		if err != nil {
			return nil, fmt.Errorf("bench: scaling at %d drives: %w", n, err)
		}
		p := ScalingPoint{
			Drives:      n,
			LogicalGBph: r.LogicalBackup.GBph(),
			PhysGBph:    r.PhysicalBackup.GBph(),
			LogicalCPU:  r.LogicalBackup.CPUUtil,
			PhysCPU:     r.PhysicalBackup.CPUUtil,
		}
		p.LogicalPer = p.LogicalGBph / float64(n)
		p.PhysPer = p.PhysGBph / float64(n)
		out = append(out, p)
	}
	return out, nil
}
