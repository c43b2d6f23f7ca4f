package pipeline

import (
	"errors"
	"sync"

	"context"

	"repro/internal/obs"
	"repro/internal/sim"
)

// ErrClosed is returned by Put after CloseSend.
var ErrClosed = errors.New("pipeline: queue closed")

// Queue is a bounded FIFO connecting pipeline stages. Put blocks while
// the queue is full, Get while it is empty — on the simulator by
// parking the calling process on a sim.Cond, otherwise on wake-up
// channels made once with the queue (a blocking wait allocates
// nothing) with ctx cancellation. Depth is exported as the gauge
// pipeline_queue_depth{queue="<name>"} on the registry carried by the
// pipeline's context.
//
// Mode is chosen per call from the caller's context: a stage spawned
// on the simulator carries its own sim.Proc and parks; an untimed
// caller blocks the goroutine. A single queue must not be used from
// both modes at once.
type Queue[T any] struct {
	cap int

	mu      sync.Mutex // go mode; sim mode is cooperatively serialized
	buf     []T
	head, n int
	closed  bool
	err     error

	notFull  *sim.Cond // sim mode, lazily created
	notEmpty *sim.Cond

	// Go mode. roomCh and dataCh each hold at most one wake-up token: a
	// take leaves one for a blocked Put, a put one for a blocked Get,
	// and a woken caller that leaves the queue still usable by its peers
	// passes the token on. done is closed by the first CloseSend or
	// abort, after which no call blocks.
	roomCh, dataCh chan struct{}
	done           chan struct{}

	// drop, when set, receives each buffered value an abort discards,
	// so pooled values go back to their pool.
	drop func(T)

	depth *obs.Gauge
}

// NewQueue creates a bounded queue of the given capacity (minimum 1)
// registered on pl: when the pipeline fails, the queue is aborted and
// all blocked callers unwind with the pipeline's first error.
func NewQueue[T any](pl *Pipeline, name string, capacity int) *Queue[T] {
	if capacity < 1 {
		capacity = 1
	}
	q := &Queue[T]{
		cap:    capacity,
		buf:    make([]T, capacity),
		roomCh: make(chan struct{}, 1),
		dataCh: make(chan struct{}, 1),
		done:   make(chan struct{}),
		depth:  obs.MetricsFrom(pl.Context()).Gauge("pipeline_queue_depth", obs.Labels{"queue": name}),
	}
	pl.register(q)
	return q
}

// conds lazily creates the sim-mode condition variables on p's Env.
// Safe without locking: sim mode runs one process at a time.
func (q *Queue[T]) conds(p *sim.Proc) {
	if q.notFull == nil {
		q.notFull = sim.NewCond(p.Env())
		q.notEmpty = sim.NewCond(p.Env())
	}
}

// signal leaves a wake-up token on ch unless one is already there.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// wait blocks a go-mode caller until a token arrives on ch, the queue
// is closed or aborted, or ctx is cancelled (the only error).
func (q *Queue[T]) wait(ctx context.Context, ch chan struct{}) error {
	select {
	case <-ch:
	case <-q.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	return nil
}

// finishLocked wakes every go-mode waiter for good. Callers hold q.mu.
func (q *Queue[T]) finishLocked() {
	select {
	case <-q.done:
	default:
		close(q.done)
	}
}

// put appends v. Callers have checked there is room.
func (q *Queue[T]) put(v T) {
	q.buf[(q.head+q.n)%q.cap] = v
	q.n++
	q.depth.Set(float64(q.n))
}

// take removes and returns the head. Callers have checked q.n > 0.
func (q *Queue[T]) take() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // drop the reference for pooled buffers
	q.head = (q.head + 1) % q.cap
	q.n--
	q.depth.Set(float64(q.n))
	return v
}

// Put enqueues v, blocking while the queue is full. It returns the
// abort error if the pipeline failed, ErrClosed after CloseSend, or
// ctx's error if cancelled while blocked (untimed mode only).
func (q *Queue[T]) Put(ctx context.Context, v T) error {
	if p := sim.ProcFrom(ctx); p != nil {
		q.conds(p)
		for {
			switch {
			case q.err != nil:
				return q.err
			case q.closed:
				return ErrClosed
			case q.n < q.cap:
				q.put(v)
				q.notEmpty.Broadcast()
				return nil
			}
			q.notFull.Wait(p)
		}
	}
	for {
		q.mu.Lock()
		switch {
		case q.err != nil:
			err := q.err
			q.mu.Unlock()
			return err
		case q.closed:
			q.mu.Unlock()
			return ErrClosed
		case q.n < q.cap:
			q.put(v)
			signal(q.dataCh)
			if q.n < q.cap {
				signal(q.roomCh) // room left for the next blocked Put
			}
			q.mu.Unlock()
			return nil
		}
		q.mu.Unlock()
		if err := q.wait(ctx, q.roomCh); err != nil {
			return err
		}
	}
}

// Get dequeues the next value. ok is false with a nil error when the
// queue is closed and drained (clean end of stream); a non-nil error
// is the pipeline abort error or ctx's error.
func (q *Queue[T]) Get(ctx context.Context) (v T, ok bool, err error) {
	var zero T
	if p := sim.ProcFrom(ctx); p != nil {
		q.conds(p)
		for {
			switch {
			case q.err != nil:
				return zero, false, q.err
			case q.n > 0:
				v = q.take()
				q.notFull.Broadcast()
				return v, true, nil
			case q.closed:
				return zero, false, nil
			}
			q.notEmpty.Wait(p)
		}
	}
	for {
		q.mu.Lock()
		switch {
		case q.err != nil:
			err = q.err
			q.mu.Unlock()
			return zero, false, err
		case q.n > 0:
			v = q.take()
			signal(q.roomCh)
			if q.n > 0 {
				signal(q.dataCh) // data left for the next blocked Get
			}
			q.mu.Unlock()
			return v, true, nil
		case q.closed:
			q.mu.Unlock()
			return zero, false, nil
		}
		q.mu.Unlock()
		if err := q.wait(ctx, q.dataCh); err != nil {
			return zero, false, err
		}
	}
}

// CloseSend marks the end of the stream: blocked and future Puts fail
// with ErrClosed, and Gets drain the buffer then return ok=false.
func (q *Queue[T]) CloseSend() {
	q.mu.Lock()
	q.closed = true
	q.finishLocked()
	q.mu.Unlock()
	if q.notFull != nil {
		q.notFull.Broadcast()
		q.notEmpty.Broadcast()
	}
}

// abort poisons the queue with err: every blocked and future Put/Get
// returns it. First error wins; buffered values are discarded (handed
// to drop, if set).
func (q *Queue[T]) abort(err error) {
	q.mu.Lock()
	if q.err == nil && err != nil {
		q.err = err
	}
	var dropped []T
	for ; q.n > 0; q.n-- {
		if q.drop != nil {
			dropped = append(dropped, q.buf[q.head])
		}
		var zero T
		q.buf[q.head] = zero
		q.head = (q.head + 1) % q.cap
	}
	q.depth.Set(0)
	q.finishLocked()
	q.mu.Unlock()
	for _, v := range dropped {
		q.drop(v)
	}
	if q.notFull != nil {
		q.notFull.Broadcast()
		q.notEmpty.Broadcast()
	}
}
