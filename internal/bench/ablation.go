package bench

import (
	"context"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/logical"
	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// AblationResult compares one operation run two ways.
type AblationResult struct {
	Name     string
	Baseline OpResult
	Variant  OpResult
}

// Speedup returns baseline-elapsed / variant-elapsed.
func (a *AblationResult) Speedup() float64 {
	if a.Variant.Elapsed <= 0 {
		return 0
	}
	return float64(a.Baseline.Elapsed) / float64(a.Variant.Elapsed)
}

// RunNVRAMAblation is ablation A1: the paper's footnote 2 observes that
// logical restore "goes through the file system and NVRAM" and that
// avoiding NVRAM "is in the works". Baseline: restore with NVRAM
// logging; variant: the same restore with logging off (a restart-safe
// restore can simply be re-run from tape).
func RunNVRAMAblation(ctx context.Context, cfg Config) (*AblationResult, error) {
	measure := func(bypass bool) (OpResult, error) {
		f, err := buildFiler(ctx, cfg, "eliot", 1, nil, nil)
		if err != nil {
			return OpResult{}, err
		}
		if err := populate(ctx, f, cfg, "", 0); err != nil {
			return OpResult{}, err
		}
		if err := dumpForRestore(ctx, f); err != nil {
			return OpResult{}, err
		}
		if err := f.Wipe(ctx); err != nil {
			return OpResult{}, err
		}
		if bypass {
			f.FS.SetNVRAMLogging(false)
		}
		meters := metersFor(f)
		rec := NewRecorder(meters)
		var rerr error
		var bytes int64
		f.Env.Spawn("restore", func(p *sim.Proc) {
			c := sim.WithProc(ctx, p)
			stats, err := f.LogicalRestore(c, 0, "/", false, rec)
			if err != nil {
				rerr = err
				return
			}
			bytes = stats.BytesRead
		})
		f.Env.Run()
		if rerr != nil {
			return OpResult{}, rerr
		}
		name := "Logical restore through NVRAM"
		if bypass {
			name = "Logical restore bypassing NVRAM"
		}
		return summarize(name, rec, bytes), nil
	}
	base, err := measure(false)
	if err != nil {
		return nil, err
	}
	variant, err := measure(true)
	if err != nil {
		return nil, err
	}
	return &AblationResult{Name: "A1: NVRAM bypass on logical restore", Baseline: base, Variant: variant}, nil
}

// RunReadAheadAblation is ablation A2: the paper notes "Network
// Appliance's dump generates its own read-ahead policy" (§3).
// Baseline: dump with read-ahead disabled (a stock filesystem policy
// fighting inode-order reads); variant: the dump engine's cross-file
// read-ahead.
func RunReadAheadAblation(ctx context.Context, cfg Config) (*AblationResult, error) {
	measure := func(readAhead int, name string) (OpResult, error) {
		f, err := buildFiler(ctx, cfg, "eliot", 1, nil, nil)
		if err != nil {
			return OpResult{}, err
		}
		if err := populate(ctx, f, cfg, "", 0); err != nil {
			return OpResult{}, err
		}
		if err := f.FS.CP(ctx); err != nil {
			return OpResult{}, err
		}
		meters := metersFor(f)
		rec := NewRecorder(meters)
		var derr error
		var bytes int64
		f.Env.Spawn("dump", func(p *sim.Proc) {
			c := sim.WithProc(ctx, p)
			if err := f.LoadTape(c, 0); err != nil {
				derr = err
				return
			}
			if err := f.FS.CreateSnapshot(c, "s"); err != nil {
				derr = err
				return
			}
			view, _ := f.FS.SnapshotView("s")
			rec.Begin("Dump")
			stats, err := dumpLevel(c, f, view, 0, 0, readAhead)
			if err != nil {
				derr = err
				return
			}
			rec.End()
			bytes = stats.BytesWritten
		})
		f.Env.Run()
		if derr != nil {
			return OpResult{}, derr
		}
		return summarize(name, rec, bytes), nil
	}
	base, err := measure(0, "Logical dump, no read-ahead")
	if err != nil {
		return nil, err
	}
	variant, err := measure(16, "Logical dump, dump-driven read-ahead")
	if err != nil {
		return nil, err
	}
	return &AblationResult{Name: "A2: dump-driven read-ahead", Baseline: base, Variant: variant}, nil
}

// RunCopyAblation is ablation A3: the paper's dump is in-kernel with a
// "no-copy solution, in which data read from the file system is passed
// directly to the tape driver" (§3). Baseline: a user-level dump
// paying a per-block copy across the user/kernel boundary; variant:
// the zero-copy kernel path.
func RunCopyAblation(ctx context.Context, cfg Config) (*AblationResult, error) {
	measure := func(copyCost time.Duration, name string) (OpResult, error) {
		c2 := cfg
		prev := cfg.Tweak
		c2.Tweak = func(fc *core.FilerConfig) {
			fc.FSCosts.CopyBlock = copyCost
			if prev != nil {
				prev(fc)
			}
		}
		f, err := buildFiler(ctx, c2, "eliot", 1, nil, nil)
		if err != nil {
			return OpResult{}, err
		}
		if err := populate(ctx, f, c2, "", 0); err != nil {
			return OpResult{}, err
		}
		meters := metersFor(f)
		rec := NewRecorder(meters)
		var derr error
		var bytes int64
		f.Env.Spawn("dump", func(p *sim.Proc) {
			c := sim.WithProc(ctx, p)
			if err := f.LoadTape(c, 0); err != nil {
				derr = err
				return
			}
			stats, err := f.LogicalDump(c, 0, 0, "", "s", rec)
			if err != nil {
				derr = err
				return
			}
			bytes = stats.BytesWritten
		})
		f.Env.Run()
		if derr != nil {
			return OpResult{}, derr
		}
		return summarize(name, rec, bytes), nil
	}
	// A user/kernel boundary crossing plus copy cost ~100 µs per 4 KB
	// on a 500 MHz machine.
	base, err := measure(100*time.Microsecond, "Logical dump, user-level (copies)")
	if err != nil {
		return nil, err
	}
	variant, err := measure(0, "Logical dump, in-kernel (zero-copy)")
	if err != nil {
		return nil, err
	}
	return &AblationResult{Name: "A3: kernel integration (zero-copy)", Baseline: base, Variant: variant}, nil
}

// IncrementalResult measures the §6 extension: incremental image dumps
// versus incremental logical dumps after light churn, and versus their
// full counterparts.
type IncrementalResult struct {
	FullLogicalBytes, IncrLogicalBytes     int64
	FullPhysicalBlocks, IncrPhysicalBlocks int
	FullLogical, IncrLogical               OpResult
	FullPhysical, IncrPhysical             OpResult
}

// RunIncremental backs up a dataset fully with both strategies,
// applies ~5% churn, then takes a level-1 logical dump and an
// incremental image dump, reporting sizes and times.
func RunIncremental(ctx context.Context, cfg Config) (*IncrementalResult, error) {
	f, err := buildFiler(ctx, cfg, "eliot", 4, nil, nil)
	if err != nil {
		return nil, err
	}
	if err := populate(ctx, f, cfg, "", 0); err != nil {
		return nil, err
	}
	if err := f.FS.CP(ctx); err != nil {
		return nil, err
	}
	res := &IncrementalResult{}
	meters := metersFor(f)

	runOp := func(name string, drive int, fn func(c context.Context, rec *Recorder) error) (OpResult, error) {
		rec := NewRecorder(meters)
		var opErr error
		f.Env.Spawn(name, func(p *sim.Proc) {
			c := sim.WithProc(ctx, p)
			if err := f.LoadTape(c, drive); err != nil {
				opErr = err
				return
			}
			rec.Begin(name)
			opErr = fn(c, rec)
			f.Tapes[drive].Flush(p)
			rec.End()
		})
		f.Env.Run()
		if opErr != nil {
			return OpResult{}, opErr
		}
		return summarize(name, rec, 0), nil
	}

	// Full dumps with both strategies.
	op, err := runOp("Full logical dump", 0, func(c context.Context, rec *Recorder) error {
		if err := f.FS.CreateSnapshot(c, "l0"); err != nil {
			return err
		}
		defer f.FS.DeleteSnapshot(c, "l0")
		view, _ := f.FS.SnapshotView("l0")
		stats, err := dumpLevel(c, f, view, 0, 0, 16)
		if err != nil {
			return err
		}
		res.FullLogicalBytes = stats.BytesWritten
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.FullLogical = op

	op, err = runOp("Full image dump", 1, func(c context.Context, rec *Recorder) error {
		stats, err := f.ImageDump(c, 1, "img0", "")
		if err != nil {
			return err
		}
		res.FullPhysicalBlocks = stats.BlocksDumped
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.FullPhysical = op

	// ~5% churn.
	paths := []string{}
	d, err := workload.TreeDigest(ctx, f.FS.ActiveView(), "/")
	if err != nil {
		return nil, err
	}
	for p, e := range d {
		if e.Type == wafl.ModeReg {
			paths = append(paths, p)
		}
	}
	slices.Sort(paths) // map order would make the seeded churn pick differ run to run
	if _, err := workload.Age(ctx, f.FS, paths, workload.AgeSpec{
		Seed: cfg.Seed + 99, Rounds: 1, ChurnPerRound: len(paths) / 20, MeanFileSize: 64 << 10,
	}); err != nil {
		return nil, err
	}

	// Incrementals with both strategies.
	op, err = runOp("Incremental logical dump", 2, func(c context.Context, rec *Recorder) error {
		if err := f.FS.CreateSnapshot(c, "l1"); err != nil {
			return err
		}
		defer f.FS.DeleteSnapshot(c, "l1")
		view, _ := f.FS.SnapshotView("l1")
		stats, err := dumpLevel(c, f, view, 2, 1, 16)
		if err != nil {
			return err
		}
		res.IncrLogicalBytes = stats.BytesWritten
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.IncrLogical = op

	op, err = runOp("Incremental image dump", 3, func(c context.Context, rec *Recorder) error {
		stats, err := f.ImageDump(c, 3, "img1", "img0")
		if err != nil {
			return err
		}
		res.IncrPhysicalBlocks = stats.BlocksDumped
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.IncrPhysical = op
	return res, nil
}

// metersFor builds a Meters over a filer's resources.
func metersFor(f *core.Filer) *Meters {
	return &Meters{Env: f.Env, CPU: f.CPU, Vols: []*raid.Volume{f.Vol}, Tapes: f.Tapes}
}

// dumpLevel runs a logical dump at the given level and read-ahead.
func dumpLevel(ctx context.Context, f *core.Filer, view *wafl.View, drive, level, readAhead int) (*logical.DumpStats, error) {
	stats, err := logical.Dump(ctx, logical.DumpOptions{
		View: view, Level: level, Dates: f.Dates, FSID: f.Config.Name,
		Sink: f.Sink(ctx, drive), Label: "bench", ReadAhead: readAhead,
	})
	if err != nil {
		return nil, err
	}
	f.Tapes[drive].Flush(sim.ProcFrom(ctx))
	return stats, nil
}

// dumpForRestore writes a level-0 dump onto drive 0 so a restore can
// be measured on a wiped filesystem.
func dumpForRestore(ctx context.Context, f *core.Filer) error {
	var derr error
	f.Env.Spawn("prep-dump", func(p *sim.Proc) {
		c := sim.WithProc(ctx, p)
		if err := f.LoadTape(c, 0); err != nil {
			derr = err
			return
		}
		if _, err := f.LogicalDump(c, 0, 0, "", "prep", nil); err != nil {
			derr = err
		}
	})
	f.Env.Run()
	return derr
}
