package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/mirror"
	"repro/internal/storage"
	"repro/internal/workload"
)

// MirrorPoint is one row of the replication experiment (§6 extension):
// how long the initial transfer and a steady-state incremental sync
// take over a link of the given bandwidth.
type MirrorPoint struct {
	LinkMBps    float64
	InitialSync time.Duration
	InitialBlk  int
	SteadySync  time.Duration
	SteadyBlk   int
}

// RunMirrorLag measures volume replication built on incremental image
// dumps across a sweep of link bandwidths: the initial sync moves the
// whole volume, the steady-state sync only the snapshot delta after a
// fixed slice of churn — the asymmetry that makes image-based
// mirroring practical over thin links.
func RunMirrorLag(ctx context.Context, cfg Config, linkMBps []float64) ([]MirrorPoint, error) {
	var out []MirrorPoint
	for _, rate := range linkMBps {
		f, err := buildFiler(ctx, cfg, "prod", 1, nil, nil)
		if err != nil {
			return nil, err
		}
		paths, err := workload.Generate(ctx, f.FS, workload.Spec{
			Seed: cfg.Seed, Files: cfg.DataMB << 20 / (64 << 10), DirFanout: 10,
			MeanFileSize: 64 << 10,
		})
		if err != nil {
			return nil, err
		}
		standby := storage.NewMemDevice(f.Vol.NumBlocks())
		link := mirror.NewLink(f.Env, "wan", rate*(1<<20), time.Millisecond)
		m := mirror.New(f.FS, f.Vol, standby, link, f.Config.PhysCosts)

		pt := MirrorPoint{LinkMBps: rate}
		meters := metersFor(f)
		sync := func(name string, blocks *int) (time.Duration, error) {
			op, err := measure(ctx, meters, fmt.Sprintf("%s at %.1f MB/s", name, rate), func(c context.Context, rec *Recorder) (int64, error) {
				rec.Begin(name)
				n, err := m.Sync(c)
				*blocks = n
				return 0, err
			})
			return op.Elapsed, err
		}
		if pt.InitialSync, err = sync("initial mirror sync", &pt.InitialBlk); err != nil {
			return nil, err
		}
		// Steady state: ~3% churn, then sync the delta.
		if _, err := workload.Age(ctx, f.FS, paths, workload.AgeSpec{
			Seed: cfg.Seed + 5, Rounds: 1, ChurnPerRound: len(paths) / 30,
			MeanFileSize: 64 << 10,
		}); err != nil {
			return nil, err
		}
		if pt.SteadySync, err = sync("steady mirror sync", &pt.SteadyBlk); err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}
