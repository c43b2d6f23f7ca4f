// Package pipeline provides the stage-structured concurrency layer the
// dump engines are built on: a Group that fans work out to stages, a
// Pipeline that adds first-error propagation and teardown, a bounded
// Queue connecting stages with backpressure — and, built from those,
// the one data path both engines share: Streams and RunShards resolve a
// dump's sinks into shards and run them, and Fanout moves each shard's
// plan through parallel readers to an in-order writer.
//
// Everything here is dual-mode. When the context carries a sim.Proc,
// stages are spawned as simulated processes on that proc's Env and
// queue blocking parks on sim.Cond — so a parallel dump stays on the
// deterministic virtual clock and a run with N readers produces the
// same bytes and the same timings every time. Without a proc, stages
// are ordinary goroutines and queues block on channels with
// ctx-cancellation, which is what the NDMP server and the functional
// tests use.
//
// Error propagation rules (documented in DESIGN.md):
//
//   - The first stage error wins. It cancels the pipeline context and
//     aborts every registered queue, so blocked stages unwind promptly
//     with that same error.
//   - Later errors (almost always cascades of the abort) are recorded
//     but Wait returns the first.
//   - A stage returning the pipeline's own abort error is not treated
//     as a new failure.
//
// Shard isolation is built on top of Pipeline, not inside it: each
// dump shard runs its own (inside Fanout), and RunShards joins the
// shards with a plain Group, so one drive's failure tears down its
// shard's stages but leaves sibling shards streaming.
package pipeline

import (
	"context"
	"errors"
	"sync"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Group runs a set of stages and joins them. It does not cancel
// anything: every stage runs to its own completion, and Wait returns
// the joined errors. Use it to run independent work (dump shards)
// side by side; use Pipeline for stages that should die together.
type Group struct {
	ctx  context.Context
	env  *sim.Env  // non-nil when running on the simulator
	join *sim.Cond // sim-mode join: parent parks here until n hits 0
	n    int       // sim-mode live stage count
	wg   sync.WaitGroup

	mu   sync.Mutex
	errs []error
}

// NewGroup creates a group running under ctx. When ctx carries a
// sim.Proc the group spawns simulated processes on that proc's Env;
// otherwise it spawns goroutines.
func NewGroup(ctx context.Context) *Group {
	g := &Group{ctx: ctx}
	if p := sim.ProcFrom(ctx); p != nil {
		g.env = p.Env()
		g.join = sim.NewCond(g.env)
	}
	return g
}

// record appends a stage error.
func (g *Group) record(err error) {
	if err == nil {
		return
	}
	g.mu.Lock()
	g.errs = append(g.errs, err)
	g.mu.Unlock()
}

// Go starts fn as a new stage named name. In sim mode fn runs as a
// fresh simulated process and its context carries that process; the
// name shows up in traces and deadlock panics, so make it specific
// ("physical.shard2.reader0").
func (g *Group) Go(name string, fn func(ctx context.Context) error) {
	if g.env != nil {
		g.n++
		g.env.Spawn(name, func(p *sim.Proc) {
			g.record(fn(sim.WithProc(g.ctx, p)))
			g.n--
			if g.n == 0 {
				g.join.Broadcast()
			}
		})
		return
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.record(fn(g.ctx))
	}()
}

// Wait blocks until every stage has returned and joins their errors.
// In sim mode it must be called by the process that created the group
// (the one carried by the constructor's ctx).
func (g *Group) Wait() error {
	if g.env != nil {
		p := sim.ProcFrom(g.ctx)
		for g.n > 0 {
			g.join.Wait(p)
		}
	} else {
		g.wg.Wait()
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return errors.Join(g.errs...)
}

// aborter is what a Pipeline needs from its queues at teardown.
type aborter interface{ abort(error) }

// Pipeline is a Group whose stages live and die together: the first
// stage error cancels the pipeline context, aborts every queue created
// on the pipeline, and becomes Wait's return value. Each stage runs
// under an obs span named "pipeline.<name>".
type Pipeline struct {
	g      *Group
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	first  error
	queues []aborter
}

// New creates a pipeline under ctx (see NewGroup for mode selection).
func New(ctx context.Context) *Pipeline {
	cctx, cancel := context.WithCancel(ctx)
	return &Pipeline{g: NewGroup(cctx), ctx: cctx, cancel: cancel}
}

// Context returns the pipeline's cancellable context.
func (pl *Pipeline) Context() context.Context { return pl.ctx }

// register adds a queue to the teardown list. If the pipeline already
// failed the queue is aborted immediately.
func (pl *Pipeline) register(q aborter) {
	pl.mu.Lock()
	first := pl.first
	if first == nil {
		pl.queues = append(pl.queues, q)
	}
	pl.mu.Unlock()
	if first != nil {
		q.abort(first)
	}
}

// fail records the pipeline's first error and tears everything down:
// the context is cancelled and every queue is aborted with that error.
// Subsequent calls are no-ops.
func (pl *Pipeline) fail(err error) {
	pl.mu.Lock()
	if pl.first != nil || err == nil {
		pl.mu.Unlock()
		return
	}
	pl.first = err
	queues := pl.queues
	pl.queues = nil
	pl.mu.Unlock()
	pl.cancel()
	for _, q := range queues {
		q.abort(err)
	}
}

// Go starts fn as a pipeline stage. A non-nil return fails the whole
// pipeline; since fail is first-wins, a stage unwound by the abort of
// an earlier failure does not overwrite that failure.
func (pl *Pipeline) Go(name string, fn func(ctx context.Context) error) {
	pl.g.Go(name, func(ctx context.Context) error {
		ctx, span := obs.Start(ctx, "pipeline."+obs.Slug(name))
		err := fn(ctx)
		if err != nil {
			span.SetAttr("error", err.Error())
		}
		span.End()
		if err != nil {
			pl.fail(err)
		}
		return err
	})
}

// Wait joins every stage and returns the first error, or nil when all
// stages succeeded. The pipeline context is cancelled on return, so
// queues created on the pipeline are unusable afterwards. In sim mode
// Wait must be called by the process that created the pipeline.
func (pl *Pipeline) Wait() error {
	pl.g.Wait()
	pl.cancel()
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.first
}
