package pipeline

import (
	"context"
	"fmt"
	"sync/atomic"
)

// Fanout runs a precomputed plan of N jobs through parallel readers and
// delivers the results in plan order: each reader claims the next plan
// index, stages it, and hands it to a bounded queue; the caller
// reassembles plan order and emits. Because the plan fixes every job
// before any I/O starts and delivery is in plan order, what Emit writes
// does not depend on Readers or Depth — parallelism changes only the
// clock. Both dump engines move their data through this one loop.
//
// Readers run as spawned pipeline stages. Emit runs on the process (or
// goroutine) that calls Run, so a sink bound to the caller's simulated
// process needs no rebinding.
type Fanout[T any] struct {
	// Name prefixes the reader stage names ("<Name>.reader0") and names
	// the queue's depth gauge.
	Name string
	// N is the plan length; jobs are the indices 0..N-1.
	N int
	// Readers is the number of parallel stagers (minimum 1, at most N).
	Readers int
	// Depth is how many staged jobs each reader keeps in flight before
	// settling the oldest (minimum 1: stage, settle, hand over).
	Depth int
	// Stage starts job seq on the given reader and returns its value,
	// which may still be in flight (an asynchronous read).
	Stage func(ctx context.Context, reader, seq int) (T, error)
	// Settle, if set, completes a staged value before it is handed
	// over: it waits out the asynchronous work Stage began. A reader
	// settles its jobs in the order it claimed them.
	Settle func(ctx context.Context, reader, seq int, v T)
	// Open runs on the caller once the readers have started and before
	// the first Emit: the stream preamble, written while the readers
	// stage their first jobs.
	Open func() error
	// Emit receives every value once, in plan order. It borrows v.
	Emit func(seq int, v T) error
	// Release is called exactly once for every value Stage returned —
	// after Emit, or when an error means it will never be emitted — so
	// pooled buffers always go back.
	Release func(v T)
}

// staged is a job's value on its way to the caller.
type staged[T any] struct {
	seq int
	v   T
}

// Run executes the plan and returns the first error: a reader's,
// Open's, Emit's or ctx's. All readers have exited and every staged
// value has been released when it returns.
func (f *Fanout[T]) Run(ctx context.Context) error {
	readers := min(max(f.Readers, 1), max(f.N, 1))
	pl := New(ctx)
	// Two slots per reader plus two: a reader never waits on the caller
	// while its next job is staging.
	out := NewQueue[staged[T]](pl, f.Name, 2*readers+2)
	out.drop = func(s staged[T]) { f.Release(s.v) }
	var next, live atomic.Int64
	live.Store(int64(readers))
	for r := 0; r < readers; r++ {
		pl.Go(fmt.Sprintf("%s.reader%d", f.Name, r), func(ctx context.Context) error {
			err := f.read(ctx, r, &next, out)
			if live.Add(-1) == 0 {
				out.CloseSend() // last reader out ends the stream
			}
			return err
		})
	}
	err := f.Open()
	if err == nil {
		err = f.deliver(pl.Context(), out)
	}
	pl.fail(err)
	return pl.Wait()
}

// read is one reader: claim, stage, and once Depth jobs are in flight
// settle and hand over the oldest.
func (f *Fanout[T]) read(ctx context.Context, reader int, next *atomic.Int64, out *Queue[staged[T]]) error {
	depth := max(f.Depth, 1)
	ring := make([]staged[T], depth) // in flight, oldest at head
	head, n := 0, 0
	defer func() { // an error strands what is still in flight
		for ; n > 0; head, n = (head+1)%depth, n-1 {
			f.Release(ring[head].v)
		}
	}()
	flush := func() error {
		s := ring[head]
		head, n = (head+1)%depth, n-1
		if f.Settle != nil {
			f.Settle(ctx, reader, s.seq, s.v)
		}
		if err := out.Put(ctx, s); err != nil {
			f.Release(s.v)
			return err
		}
		return nil
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		seq := int(next.Add(1)) - 1
		if seq >= f.N {
			break
		}
		v, err := f.Stage(ctx, reader, seq)
		if err != nil {
			return err
		}
		ring[(head+n)%depth] = staged[T]{seq, v}
		n++
		if n == depth {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	for n > 0 {
		if err := flush(); err != nil {
			return err
		}
	}
	return nil
}

// deliver reassembles plan order on the caller. Readers finish out of
// order; the values held back are bounded by Readers×Depth plus the
// queue.
func (f *Fanout[T]) deliver(ctx context.Context, out *Queue[staged[T]]) error {
	var pending map[int]T // arrived ahead of their turn
	defer func() {
		for _, v := range pending {
			f.Release(v)
		}
	}()
	for emitted := 0; emitted < f.N; {
		v, ready := pending[emitted]
		if ready {
			delete(pending, emitted)
		} else {
			s, ok, err := out.Get(ctx)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("pipeline: %s ended at job %d of %d", f.Name, emitted, f.N)
			}
			if s.seq != emitted {
				if pending == nil {
					pending = make(map[int]T)
				}
				pending[s.seq] = s.v
				continue
			}
			v = s.v
		}
		err := f.Emit(emitted, v)
		f.Release(v)
		if err != nil {
			return err
		}
		emitted++
	}
	return nil
}
