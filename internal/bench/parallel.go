package bench

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

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
		c := cfg.tweaked(func(fc *core.FilerConfig) { fc.RaidGroups = groups })
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

	dump := func(f *core.Filer, snap string) opBody {
		return func(c context.Context, rec *Recorder) (int64, error) {
			view, err := loadAndSnapshot(c, f, snap)
			if err != nil {
				return 0, err
			}
			rec.Begin("Dump")
			bytes, err := logicalDump{}.toTape(c, f, view, 0, 1)
			rec.End()
			if derr := f.FS.DeleteSnapshot(c, snap); err == nil {
				err = derr
			}
			return bytes, err
		}
	}

	res := &ConcurrentVolumesResult{}
	mHome, mRlse := metersFor(home), metersFor(rlse)
	if res.HomeIsolated, err = measure(ctx, mHome, "home (isolated)", dump(home, "iso")); err != nil {
		return nil, err
	}
	if res.RlseIsolated, err = measure(ctx, mRlse, "rlse (isolated)", dump(rlse, "iso")); err != nil {
		return nil, err
	}
	homeCon := start(ctx, mHome, "home (concurrent)", dump(home, "con"))
	rlseCon := start(ctx, mRlse, "rlse (concurrent)", dump(rlse, "con"))
	env.Run()
	if res.HomeConcurrent, err = homeCon(); err != nil {
		return nil, err
	}
	if res.RlseConcurrent, err = rlseCon(); err != nil {
		return nil, err
	}
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

	// The restores of the same run, in MB/s.
	LogicalRestoreMBps float64
	PhysRestoreMBps    float64
}

// Scaling derives the scaling-summary row from a run's two backups.
func (r *Result) Scaling() ScalingPoint {
	n := float64(r.Drives)
	return ScalingPoint{
		Drives:      r.Drives,
		LogicalGBph: r.LogicalBackup.GBph(),
		PhysGBph:    r.PhysicalBackup.GBph(),
		LogicalPer:  r.LogicalBackup.GBph() / n,
		PhysPer:     r.PhysicalBackup.GBph() / n,
		LogicalCPU:  r.LogicalBackup.CPUUtil,
		PhysCPU:     r.PhysicalBackup.CPUUtil,

		LogicalRestoreMBps: r.LogicalRestore.MBps(),
		PhysRestoreMBps:    r.PhysicalRestore.MBps(),
	}
}

// RunScaling sweeps the drive counts and reports aggregate and
// per-tape backup throughput for both strategies — the paper's
// headline comparison (69.6 vs 110 GB/h at 4 drives). Both backups read
// the same aged volume; the restores run too, and their rates ride
// along in the points.
func RunScaling(ctx context.Context, cfg Config, driveCounts []int) ([]ScalingPoint, error) {
	var out []ScalingPoint
	for _, n := range driveCounts {
		r, err := RunParallel(ctx, cfg, n)
		if err != nil {
			return nil, fmt.Errorf("bench: scaling at %d drives: %w", n, err)
		}
		out = append(out, r.Scaling())
	}
	return out, nil
}
