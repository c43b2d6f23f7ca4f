package bench

import (
	"context"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/logical"
	"repro/internal/obs"
	"repro/internal/physical"
	"repro/internal/raid"
	"repro/internal/sim"
)

// ObsReport is what an instrumented smoke run produced: each engine's
// own statistics next to the registry that observed it, so callers can
// cross-check the two (backupctl stats -check does exactly that).
type ObsReport struct {
	Logical *logical.DumpStats
	Image   *physical.DumpStats
	// DedupPrime and DedupRepeat are the two passes of the dedup
	// smoke: the same snapshot chunked twice over one index, so the
	// repeat is (nearly) all hits and every chunk counter moves.
	DedupPrime  chunk.WriterStats
	DedupRepeat chunk.WriterStats
	Stages      []*Stage
	Registry    *obs.Registry
	Filer       *core.Filer
}

// RunObs populates a filer, then runs a level-0 logical dump to drive
// 0 and a full image dump to drive 1 with metrics and (optionally)
// tracing threaded through the whole stack — the workload behind
// backupctl stats and make obs-smoke. The returned report keeps the
// live registry, so its pull collectors still read the filer.
func RunObs(ctx context.Context, cfg Config, tr *obs.Tracer) (*ObsReport, error) {
	tweak := cfg.Tweak
	cfg.Tweak = func(fc *core.FilerConfig) {
		// A small cache forces the dumps to the disks, so the vdev and
		// raid counters observe real traffic instead of cache hits.
		fc.CacheBlocks = 64
		if tweak != nil {
			tweak(fc)
		}
	}
	f, err := buildFiler(ctx, cfg, "obs", 2, nil, nil)
	if err != nil {
		return nil, err
	}
	if err := populate(ctx, f, cfg, "", 0); err != nil {
		return nil, err
	}
	if err := f.FS.CP(ctx); err != nil {
		return nil, err
	}

	meters := &Meters{Env: f.Env, CPU: f.CPU, Vols: []*raid.Volume{f.Vol}, Tapes: f.Tapes}
	reg := meters.Registry()
	plain := ctx // no registry: the dedup smoke's dumps must not recount engine metrics
	ctx = obs.WithMetrics(ctx, reg)
	if tr != nil {
		ctx = obs.WithTracer(ctx, tr)
	}
	rep := &ObsReport{
		Registry: reg,
		Filer:    f,
	}
	rec := NewRecorder(meters)

	var dumpErr error
	f.Env.Spawn("logical-dump", func(p *sim.Proc) {
		c := sim.WithProc(ctx, p)
		if dumpErr = f.LoadTape(c, 0); dumpErr != nil {
			return
		}
		rep.Logical, dumpErr = f.LogicalDump(c, 0, 0, "/", "obs-l0", rec)
	})
	f.Env.Run()
	if dumpErr != nil {
		return nil, fmt.Errorf("bench: obs logical dump: %w", dumpErr)
	}

	var imgErr error
	f.Env.Spawn("image-dump", func(p *sim.Proc) {
		c := sim.WithProc(ctx, p)
		if imgErr = f.LoadTape(c, 1); imgErr != nil {
			return
		}
		rec.Begin("Dumping blocks")
		rep.Image, imgErr = f.ImageDump(c, 1, "obs-img", "")
		rec.End()
	})
	f.Env.Run()
	if imgErr != nil {
		return nil, fmt.Errorf("bench: obs image dump: %w", imgErr)
	}

	// Dedup smoke: chunk the same snapshot twice through one index.
	// The prime pass stores (misses), the repeat pass dedups (hits),
	// so the registry's chunk counters are all guaranteed nonzero.
	dcat, err := catalog.Open(&catalog.MemStore{})
	if err != nil {
		return nil, err
	}
	dcat.RegisterChunkMetrics(reg)
	dmedia := chunk.NewMemMedia("obs-chunks")
	if err := f.FS.CreateSnapshot(ctx, "obs-dedup"); err != nil {
		return nil, err
	}
	for _, pass := range []string{"dedup-prime", "dedup-repeat"} {
		var passErr error
		var ws chunk.WriterStats
		f.Env.Spawn(pass, func(p *sim.Proc) {
			// The dump itself runs metrics-free (its files/bytes would
			// double-count the engine counters the -check cross-checks);
			// only the chunk writer reports to the registry.
			c := sim.WithProc(plain, p)
			view, err := f.FS.SnapshotView("obs-dedup")
			if err != nil {
				passErr = err
				return
			}
			w, err := chunk.NewWriter(chunk.WriterOptions{
				Index: dcat, Media: dmedia, Ctx: ctx, Engine: "logical",
			})
			if err != nil {
				passErr = err
				return
			}
			if _, err := logical.Dump(c, logical.DumpOptions{
				View: view, Label: "obs-dedup", FSID: "obs",
				ReadAhead: 8, Sink: w,
			}); err != nil {
				passErr = err
				return
			}
			if _, passErr = w.Close(); passErr != nil {
				return
			}
			ws = w.Stats()
		})
		f.Env.Run()
		if passErr != nil {
			return nil, fmt.Errorf("bench: obs %s: %w", pass, passErr)
		}
		if pass == "dedup-prime" {
			rep.DedupPrime = ws
		} else {
			rep.DedupRepeat = ws
		}
	}
	rep.Stages = rec.Stages
	return rep, nil
}
