package media_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/physical"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/workload"
)

// TestWrappedSinksOnSimulatedImageDump is the wiring of sched's image
// run — physical.Dump into a TrackingSink around a DriveSink, on the
// simulator — at a volume big enough that the tape drive blocks the
// writer. The wrapper used not to forward BindProc, so a writer running
// on a spawned process drove the caller's parked one and the simulator
// panicked ("2 process(es) still live"). With one sink the writer now
// runs on the caller; with two, each shard rebinds its sink through the
// wrapper. Either way the wrapped dump must complete in exactly the
// bare sinks' virtual time.
func TestWrappedSinksOnSimulatedImageDump(t *testing.T) {
	elapsed := func(drives int, wrap func(*core.Filer, int, stream.Sink) stream.Sink) sim.Time {
		ctx := context.Background()
		cfg := core.DefaultConfig()
		cfg.Simulate = true
		cfg.TapeDrives = drives
		f, err := core.NewFiler(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := workload.Generate(ctx, f.FS, workload.Spec{Seed: 5, Files: 200, DirFanout: 8, MeanFileSize: 16 << 10}); err != nil {
			t.Fatal(err)
		}
		if err := f.FS.CreateSnapshot(ctx, "s"); err != nil {
			t.Fatal(err)
		}
		var took sim.Time
		f.Env.Spawn("dump", func(p *sim.Proc) {
			ctx := sim.WithProc(ctx, p)
			opts := physical.DumpOptions{FS: f.FS, Vol: f.Vol, SnapName: "s", Costs: f.Config.PhysCosts}
			for d := 0; d < drives; d++ {
				if err := f.LoadTape(ctx, d); err != nil {
					t.Error(err)
					return
				}
				opts.Sinks = append(opts.Sinks, wrap(f, d, f.Sink(ctx, d)))
			}
			if drives == 1 {
				opts.Sink, opts.Sinks = opts.Sinks[0], nil
			}
			start := p.Now()
			if _, err := physical.Dump(ctx, opts); err != nil {
				t.Error(err)
			}
			took = p.Now() - start
		})
		f.Env.Run()
		return took
	}
	for _, drives := range []int{1, 2} {
		bare := elapsed(drives, func(_ *core.Filer, _ int, s stream.Sink) stream.Sink { return s })
		wrapped := elapsed(drives, func(f *core.Filer, d int, s stream.Sink) stream.Sink {
			return &media.TrackingSink{Sink: s, Drive: f.Tapes[d]}
		})
		if bare == 0 || wrapped != bare {
			t.Errorf("%d drive(s): dump through the wrappers took %v, bare DriveSink %v", drives, wrapped, bare)
		}
	}
}
