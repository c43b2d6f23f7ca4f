package bench

import (
	"context"
	"slices"
	"time"

	"repro/internal/core"
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

// ablate measures one operation twice, each time on a freshly built
// and populated filer: the baseline (variant false), then the variant.
// tweak adjusts the filer configuration and prepare runs unmeasured
// between populating and the operation; either may be nil.
func ablate(ctx context.Context, cfg Config, title string, names [2]string,
	tweak func(fc *core.FilerConfig, variant bool),
	prepare func(f *core.Filer, m *Meters, variant bool) error,
	op func(c context.Context, f *core.Filer, rec *Recorder, variant bool) (int64, error)) (*AblationResult, error) {
	res := &AblationResult{Name: title}
	for i, out := range []*OpResult{&res.Baseline, &res.Variant} {
		variant := i == 1
		vcfg := cfg
		if tweak != nil {
			vcfg = cfg.tweaked(func(fc *core.FilerConfig) { tweak(fc, variant) })
		}
		f, err := buildFiler(ctx, vcfg, "eliot", 1, nil, nil)
		if err != nil {
			return nil, err
		}
		if err := populate(ctx, f, vcfg, "", 0); err != nil {
			return nil, err
		}
		meters := metersFor(f)
		if prepare != nil {
			if err := prepare(f, meters, variant); err != nil {
				return nil, err
			}
		}
		*out, err = measure(ctx, meters, names[i], func(c context.Context, rec *Recorder) (int64, error) {
			return op(c, f, rec, variant)
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// RunNVRAMAblation is ablation A1: the paper's footnote 2 observes that
// logical restore "goes through the file system and NVRAM" and that
// avoiding NVRAM "is in the works". Baseline: restore with NVRAM
// logging; variant: the same restore with logging off (a restart-safe
// restore can simply be re-run from tape).
func RunNVRAMAblation(ctx context.Context, cfg Config) (*AblationResult, error) {
	return ablate(ctx, cfg, "A1: NVRAM bypass on logical restore",
		[2]string{"Logical restore through NVRAM", "Logical restore bypassing NVRAM"}, nil,
		func(f *core.Filer, m *Meters, bypass bool) error {
			// A level-0 dump on drive 0, then the wiped filesystem the
			// restore is measured on.
			if _, err := measure(ctx, m, "prepare", func(c context.Context, _ *Recorder) (int64, error) {
				view, err := loadAndSnapshot(c, f, "prep")
				if err != nil {
					return 0, err
				}
				defer f.FS.DeleteSnapshot(c, "prep") // as after any dump; Table 8 moves if it is left to the wipe
				return logicalDump{}.toTape(c, f, view, 0, 1)
			}); err != nil {
				return err
			}
			if err := f.Wipe(ctx); err != nil {
				return err
			}
			if bypass {
				f.FS.SetNVRAMLogging(false)
			}
			return nil
		},
		func(c context.Context, f *core.Filer, rec *Recorder, _ bool) (int64, error) {
			stats, err := f.LogicalRestore(c, 0, "/", false, rec)
			if err != nil {
				return 0, err
			}
			return stats.BytesRead, nil
		})
}

// RunReadAheadAblation is ablation A2: the paper notes "Network
// Appliance's dump generates its own read-ahead policy" (§3).
// Baseline: dump with read-ahead disabled (a stock filesystem policy
// fighting inode-order reads); variant: the dump engine's cross-file
// read-ahead.
func RunReadAheadAblation(ctx context.Context, cfg Config) (*AblationResult, error) {
	return ablate(ctx, cfg, "A2: dump-driven read-ahead",
		[2]string{"Logical dump, no read-ahead", "Logical dump, dump-driven read-ahead"}, nil,
		func(f *core.Filer, _ *Meters, _ bool) error { return f.FS.CP(ctx) },
		func(c context.Context, f *core.Filer, rec *Recorder, readAhead bool) (int64, error) {
			view, err := loadAndSnapshot(c, f, "s")
			if err != nil {
				return 0, err
			}
			rec.Begin("Dump")
			return logicalDump{noReadAhead: !readAhead}.toTape(c, f, view, 0, 1)
		})
}

// RunCopyAblation is ablation A3: the paper's dump is in-kernel with a
// "no-copy solution, in which data read from the file system is passed
// directly to the tape driver" (§3). Baseline: a user-level dump
// paying a per-block copy across the user/kernel boundary; variant:
// the zero-copy kernel path.
func RunCopyAblation(ctx context.Context, cfg Config) (*AblationResult, error) {
	return ablate(ctx, cfg, "A3: kernel integration (zero-copy)",
		[2]string{"Logical dump, user-level (copies)", "Logical dump, in-kernel (zero-copy)"},
		func(fc *core.FilerConfig, zeroCopy bool) {
			if !zeroCopy {
				// A user/kernel boundary crossing plus copy cost ~100 µs
				// per 4 KB on a 500 MHz machine.
				fc.FSCosts.CopyBlock = 100 * time.Microsecond
			}
		}, nil,
		func(c context.Context, f *core.Filer, rec *Recorder, _ bool) (int64, error) {
			view, err := loadAndSnapshot(c, f, "s")
			if err != nil {
				return 0, err
			}
			return logicalDump{rec: rec}.toTape(c, f, view, 0, 1)
		})
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

	// Each dump is one stage named after the operation, begun once the
	// drive holds its cartridge.
	dumpOp := func(name string, drive int, dump func(c context.Context) (int64, error)) (OpResult, error) {
		return measure(ctx, meters, name, func(c context.Context, rec *Recorder) (int64, error) {
			if err := f.LoadTape(c, drive); err != nil {
				return 0, err
			}
			rec.Begin(name)
			return dump(c)
		})
	}
	logicalOp := func(name, snap string, drive, level int) (OpResult, error) {
		return dumpOp(name, drive, func(c context.Context) (int64, error) {
			if err := f.FS.CreateSnapshot(c, snap); err != nil {
				return 0, err
			}
			defer f.FS.DeleteSnapshot(c, snap)
			view, err := f.FS.SnapshotView(snap)
			if err != nil {
				return 0, err
			}
			return logicalDump{level: level}.toTape(c, f, view, drive, 1)
		})
	}
	imageOp := func(name, snap, base string, drive int, blocks *int) (OpResult, error) {
		return dumpOp(name, drive, func(c context.Context) (int64, error) {
			stats, err := f.ImageDump(c, drive, snap, base)
			if err != nil {
				return 0, err
			}
			*blocks = stats.BlocksDumped
			return stats.BytesWritten, nil
		})
	}

	// Full dumps with both strategies.
	if res.FullLogical, err = logicalOp("Full logical dump", "l0", 0, 0); err != nil {
		return nil, err
	}
	if res.FullPhysical, err = imageOp("Full image dump", "img0", "", 1, &res.FullPhysicalBlocks); err != nil {
		return nil, err
	}

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
	if res.IncrLogical, err = logicalOp("Incremental logical dump", "l1", 2, 1); err != nil {
		return nil, err
	}
	if res.IncrPhysical, err = imageOp("Incremental image dump", "img1", "img0", 3, &res.IncrPhysicalBlocks); err != nil {
		return nil, err
	}
	res.FullLogicalBytes, res.IncrLogicalBytes = res.FullLogical.Bytes, res.IncrLogical.Bytes
	return res, nil
}
