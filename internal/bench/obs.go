package bench

import (
	"context"

	"repro/internal/catalog"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/logical"
	"repro/internal/obs"
	"repro/internal/physical"
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
	Registry    *obs.Registry
}

// RunObs populates a filer, then runs a level-0 logical dump to drive
// 0 and a full image dump to drive 1 with metrics and (optionally)
// tracing threaded through the whole stack — the workload behind
// backupctl stats and make obs-smoke. The returned report keeps the
// live registry, so its pull collectors still read the filer.
func RunObs(ctx context.Context, cfg Config, tr *obs.Tracer) (*ObsReport, error) {
	// A small cache forces the dumps to the disks, so the vdev and raid
	// counters observe real traffic instead of cache hits.
	cfg = cfg.tweaked(func(fc *core.FilerConfig) { fc.CacheBlocks = 64 })
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

	meters := metersFor(f)
	rep := &ObsReport{Registry: meters.Reg}
	plain := ctx // no registry: the dedup smoke's dumps must not recount engine metrics
	ctx = obs.WithMetrics(ctx, rep.Registry)
	if tr != nil {
		ctx = obs.WithTracer(ctx, tr)
	}

	if _, err := measure(ctx, meters, "obs logical dump", func(c context.Context, _ *Recorder) (int64, error) {
		if err := f.LoadTape(c, 0); err != nil {
			return 0, err
		}
		stats, err := f.LogicalDump(c, 0, 0, "/", "obs-l0", nil)
		rep.Logical = stats
		return 0, err
	}); err != nil {
		return nil, err
	}
	if _, err := measure(ctx, meters, "obs image dump", func(c context.Context, _ *Recorder) (int64, error) {
		if err := f.LoadTape(c, 1); err != nil {
			return 0, err
		}
		stats, err := f.ImageDump(c, 1, "obs-img", "")
		rep.Image = stats
		return 0, err
	}); err != nil {
		return nil, err
	}

	// Dedup smoke: chunk the same snapshot twice through one index.
	// The prime pass stores (misses), the repeat pass dedups (hits),
	// so the registry's chunk counters are all guaranteed nonzero.
	dcat, err := catalog.Open(&catalog.MemStore{})
	if err != nil {
		return nil, err
	}
	dcat.RegisterChunkMetrics(rep.Registry)
	dmedia := chunk.NewMemMedia("obs-chunks")
	if err := f.FS.CreateSnapshot(ctx, "obs-dedup"); err != nil {
		return nil, err
	}
	for _, pass := range []struct {
		name string
		ws   *chunk.WriterStats
	}{{"obs dedup-prime", &rep.DedupPrime}, {"obs dedup-repeat", &rep.DedupRepeat}} {
		// The dump itself runs metrics-free (its files/bytes would
		// double-count the engine counters the -check cross-checks);
		// only the chunk writer reports to the registry.
		if _, err := measure(plain, meters, pass.name, func(c context.Context, _ *Recorder) (int64, error) {
			view, err := f.FS.SnapshotView("obs-dedup")
			if err != nil {
				return 0, err
			}
			w, err := chunk.NewWriter(chunk.WriterOptions{
				Index: dcat, Media: dmedia, Ctx: ctx, Engine: "logical",
			})
			if err != nil {
				return 0, err
			}
			if _, err := (logicalDump{label: "obs-dedup"}).to(c, f, view, w); err != nil {
				return 0, err
			}
			if _, err := w.Close(); err != nil {
				return 0, err
			}
			*pass.ws = w.Stats()
			return 0, nil
		}); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
