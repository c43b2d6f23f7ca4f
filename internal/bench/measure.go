package bench

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/logical"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/wafl"
)

// opBody is one measured operation. It runs on a sim process of its
// own (carried by c), marks its stages on rec and returns the payload
// bytes it moved. Whatever it does before its first rec.Begin is
// outside the measured window.
type opBody func(c context.Context, rec *Recorder) (bytes int64, err error)

// start spawns body as a sim process named after the operation and
// returns the function that, once the environment has run, yields the
// operation's result or its error. Operations started before one
// Env.Run() run concurrently. This is the harness's only spawn site:
// every experiment's timing, error path and OpResult come from here.
func start(ctx context.Context, m *Meters, name string, body opBody) func() (OpResult, error) {
	rec := &Recorder{M: m}
	var bytes int64
	var err error
	m.Env.Spawn(name, func(p *sim.Proc) {
		bytes, err = body(sim.WithProc(ctx, p), rec)
		rec.End() // a trailing stage (e.g. "Deleting snapshot") ends with the body
	})
	return func() (OpResult, error) {
		if err != nil {
			return OpResult{}, fmt.Errorf("bench: %s: %w", name, err)
		}
		return newOp(name, rec.Stages, bytes), nil
	}
}

// measure runs one operation on its own: start, run the environment to
// quiescence, result.
func measure(ctx context.Context, m *Meters, name string, body opBody) (OpResult, error) {
	result := start(ctx, m, name, body)
	m.Env.Run()
	return result()
}

// newOp summarizes an operation over the window its stages span.
func newOp(name string, stages []*Stage, bytes int64) OpResult {
	op := OpResult{Name: name, Bytes: bytes, Stages: stages}
	if len(stages) > 0 {
		window := *stages[0]
		for _, s := range stages[1:] {
			window.widen(s)
		}
		op.Elapsed, op.CPUUtil = window.Elapsed(), window.CPUUtil()
	}
	return op
}

// mergeOps folds operations that ran concurrently into one: bytes
// summed and same-named stages widened into one window each, the way
// the paper reports one row per stage for four parallel streams.
func mergeOps(name string, ops []OpResult) OpResult {
	var stages []*Stage
	byName := make(map[string]*Stage)
	var bytes int64
	for _, o := range ops {
		bytes += o.Bytes
		for _, s := range o.Stages {
			if m, ok := byName[s.Name]; ok {
				m.widen(s)
				continue
			}
			cp := *s
			byName[s.Name] = &cp
			stages = append(stages, &cp)
		}
	}
	return newOp(name, stages, bytes)
}

// widen grows s to the earliest begin and latest end of s and o; on a
// tie the sample s already holds stays (Table 5's sibling streams end
// "Reading directories" on the same tick).
func (s *Stage) widen(o *Stage) {
	if o.Begin.T < s.Begin.T {
		s.Begin = o.Begin
	}
	if o.End.T > s.End.T {
		s.End = o.End
	}
}

// logicalDump is the harness's one spelling of a logical dump. The
// zero value is what every experiment runs — level 0, the engine's own
// read-ahead on, its default pipeline, stages unrecorded — and an
// experiment sets only the field it is about.
type logicalDump struct {
	label       string // "" = "bench"; on tape, so a chunked stream dedups by it
	level       int
	noReadAhead bool      // ablation A2's baseline
	readers     int       // 0 = the engine's default
	rec         *Recorder // nil = stages unrecorded
}

// to dumps view, a snapshot of f's filesystem, into sinks and returns
// the stream bytes written.
func (d logicalDump) to(ctx context.Context, f *core.Filer, view *wafl.View, sinks ...stream.Sink) (int64, error) {
	opts := logical.DumpOptions{
		View: view, Level: d.level, Dates: f.Dates, FSID: f.Config.Name,
		Sinks: sinks, Label: d.label, ReadAhead: 16, Readers: d.readers,
	}
	if d.label == "" {
		opts.Label = "bench"
	}
	if d.noReadAhead {
		opts.ReadAhead = 0
	}
	if d.rec != nil { // a typed nil must not leak into the StageRecorder interface
		opts.Stages = d.rec
	}
	stats, err := logical.Dump(ctx, opts)
	if err != nil {
		return 0, err
	}
	return stats.BytesWritten, nil
}

// toTape dumps view onto tape drives [first, first+n) of f and flushes
// them.
func (d logicalDump) toTape(ctx context.Context, f *core.Filer, view *wafl.View, first, n int) (int64, error) {
	bytes, err := d.to(ctx, f, view, tapeSinks(ctx, f, first, n)...)
	if err != nil {
		return 0, err
	}
	flushTapes(ctx, f, first, n)
	return bytes, nil
}

// loadAndSnapshot is the unmeasured lead-in of a single-drive dump: the
// next cartridge into drive 0 and a fresh snapshot to dump.
func loadAndSnapshot(ctx context.Context, f *core.Filer, snap string) (*wafl.View, error) {
	if err := f.LoadTape(ctx, 0); err != nil {
		return nil, err
	}
	if err := f.FS.CreateSnapshot(ctx, snap); err != nil {
		return nil, err
	}
	return f.FS.SnapshotView(snap)
}

// tapeSinks returns dump sinks on tape drives [first, first+n) of f.
func tapeSinks(ctx context.Context, f *core.Filer, first, n int) []stream.Sink {
	sinks := make([]stream.Sink, n)
	for i := range sinks {
		sinks[i] = f.Sink(ctx, first+i)
	}
	return sinks
}

// flushTapes drains the write buffers of tape drives [first, first+n).
func flushTapes(ctx context.Context, f *core.Filer, first, n int) {
	for i := 0; i < n; i++ {
		f.Tapes[first+i].Flush(sim.ProcFrom(ctx))
	}
}
