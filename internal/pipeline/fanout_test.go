package pipeline

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// ledger counts values staged and released, to prove Release runs
// exactly once per staged value.
type ledger struct{ staged, released atomic.Int64 }

func (l *ledger) check(t *testing.T) {
	t.Helper()
	if s, r := l.staged.Load(), l.released.Load(); s != r {
		t.Errorf("staged %d values, released %d", s, r)
	}
}

// onSim runs fn as a simulated process and drains the simulation, which
// panics if fn leaves a spawned process parked.
func onSim(fn func(ctx context.Context)) {
	env := sim.NewEnv()
	env.Spawn("caller", func(p *sim.Proc) { fn(sim.WithProc(context.Background(), p)) })
	env.Run()
}

// TestFanoutDeliversInPlanOrder: jobs complete in shuffled order (job
// seq takes (seq*7)%5 ticks) on several readers with read-ahead, and
// Emit still sees 0..N-1 — on the simulator with identical virtual
// time every run, and on goroutines.
func TestFanoutDeliversInPlanOrder(t *testing.T) {
	const n = 40
	run := func(ctx context.Context) (elapsed sim.Time) {
		var led ledger
		var got []int
		opened := false
		f := Fanout[int]{
			Name: "order", N: n, Readers: 3, Depth: 2,
			Stage: func(ctx context.Context, _, seq int) (int, error) {
				led.staged.Add(1)
				return seq * 10, nil
			},
			Settle: func(ctx context.Context, _, seq int, _ int) {
				d := time.Duration((seq*7)%5) * time.Millisecond
				if p := sim.ProcFrom(ctx); p != nil {
					p.Sleep(d)
				} else {
					time.Sleep(d / 10)
				}
			},
			Open: func() error { opened = true; return nil },
			Emit: func(seq, v int) error {
				if !opened || v != seq*10 {
					t.Errorf("emit(%d, %d), opened=%v", seq, v, opened)
				}
				got = append(got, seq)
				return nil
			},
			Release: func(int) { led.released.Add(1) },
		}
		if err := f.Run(ctx); err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("emitted %d of %d jobs", len(got), n)
		}
		for i, seq := range got {
			if seq != i {
				t.Fatalf("emit %d was job %d", i, seq)
			}
		}
		led.check(t)
		if p := sim.ProcFrom(ctx); p != nil {
			elapsed = p.Now()
		}
		return elapsed
	}
	var t1, t2 sim.Time
	onSim(func(ctx context.Context) { t1 = run(ctx) })
	onSim(func(ctx context.Context) { t2 = run(ctx) })
	if t1 == 0 || t1 != t2 {
		t.Fatalf("virtual time %v then %v", t1, t2)
	}
	run(context.Background())
}

// TestFanoutEmptyPlan: nothing to do is not an error, and Open still
// runs (a stream with no payload still has its header).
func TestFanoutEmptyPlan(t *testing.T) {
	opened := false
	f := Fanout[int]{
		Name:    "empty",
		Stage:   func(context.Context, int, int) (int, error) { t.Error("staged"); return 0, nil },
		Open:    func() error { opened = true; return nil },
		Emit:    func(int, int) error { t.Error("emitted"); return nil },
		Release: func(int) { t.Error("released") },
	}
	if err := f.Run(context.Background()); err != nil || !opened {
		t.Fatalf("Run = %v, opened = %v", err, opened)
	}
}

// TestFanoutFirstErrorWins fails a reader mid-plan, then Emit, then
// Open, in both modes: Run returns that error, every reader has exited
// (no parked sim process, no leaked goroutine), and every value staged
// — in a reader's ring, in the queue, held back for reordering — was
// released.
func TestFanoutFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	const n = 200
	for _, failAt := range []string{"stage", "emit", "open"} {
		run := func(ctx context.Context) {
			var led ledger
			f := Fanout[int]{
				Name: "fail", N: n, Readers: 4, Depth: 3,
				Stage: func(ctx context.Context, _, seq int) (int, error) {
					if failAt == "stage" && seq == n/2 {
						return 0, boom
					}
					led.staged.Add(1)
					return seq, nil
				},
				// Odd jobs are slow, so values pile up ahead of the
				// delivery cursor.
				Settle: func(ctx context.Context, _, seq int, _ int) {
					if p := sim.ProcFrom(ctx); p != nil && seq%2 == 1 {
						p.Sleep(time.Millisecond)
					}
				},
				Open: func() error {
					if failAt == "open" {
						return boom
					}
					return nil
				},
				Emit: func(seq, _ int) error {
					if failAt == "emit" && seq == n/3 {
						return boom
					}
					return nil
				},
				Release: func(int) { led.released.Add(1) },
			}
			if err := f.Run(ctx); !errors.Is(err, boom) {
				t.Errorf("fail at %s: Run = %v, want %v", failAt, err, boom)
			}
			led.check(t)
		}
		onSim(run)
		before := runtime.NumGoroutine()
		run(context.Background())
		// A stage that Run has joined may not have left the scheduler's
		// count yet (seen under the race detector): give it a moment.
		after := runtime.NumGoroutine()
		for i := 0; after > before && i < 100; i++ {
			time.Sleep(time.Millisecond)
			after = runtime.NumGoroutine()
		}
		if after > before {
			t.Errorf("fail at %s: goroutines %d -> %d after Run returned", failAt, before, after)
		}
	}
}

// TestFanoutCancel: cancelling the caller's context stops an untimed
// run whose Emit is slower than its readers.
func TestFanoutCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var led ledger
	f := Fanout[int]{
		Name: "cancel", N: 1 << 20, Readers: 2,
		Stage: func(_ context.Context, _, seq int) (int, error) {
			led.staged.Add(1)
			return seq, nil
		},
		Open: func() error { return nil },
		Emit: func(seq, _ int) error {
			if seq == 10 {
				cancel()
			}
			return nil
		},
		Release: func(int) { led.released.Add(1) },
	}
	if err := f.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	led.check(t)
}

// TestQueueBlockingWaitDoesNotAllocate ping-pongs values through two
// one-slot queues, so nearly every Put and Get blocks: the goroutine
// mode wait must not allocate (it used to make a broadcast channel per
// blocking call).
func TestQueueBlockingWaitDoesNotAllocate(t *testing.T) {
	ctx := context.Background()
	pl := New(ctx)
	ping := NewQueue[int](pl, "ping", 1)
	pong := NewQueue[int](pl, "pong", 1)
	pl.Go("echo", func(ctx context.Context) error {
		for {
			v, ok, err := ping.Get(ctx)
			if err != nil || !ok {
				return err
			}
			if err := pong.Put(ctx, v); err != nil {
				return err
			}
		}
	})
	round := func() {
		for i := 0; i < 100; i++ {
			if err := ping.Put(ctx, i); err != nil {
				t.Fatal(err)
			}
			if v, _, err := pong.Get(ctx); err != nil || v != i {
				t.Fatalf("round trip %d: got %d, %v", i, v, err)
			}
		}
	}
	if avg := testing.AllocsPerRun(50, round); avg > 1 {
		t.Errorf("100 blocking round trips allocated %.1f times", avg)
	}
	ping.CloseSend()
	if err := pl.Wait(); err != nil {
		t.Fatal(err)
	}
}
