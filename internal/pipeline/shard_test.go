package pipeline

import (
	"context"
	"testing"

	"repro/internal/sim"
	"repro/internal/stream"
)

type ckpt struct{ k, n int }

func shardOf(c *ckpt) Shard { return Shard{c.k, c.n} }

// bindSink records which simulated process it is bound to.
type bindSink struct{ proc *sim.Proc }

func (*bindSink) WriteRecord([]byte) error { return nil }
func (*bindSink) NextVolume() error        { return nil }
func (s *bindSink) BindProc(p *sim.Proc) *sim.Proc {
	old := s.proc
	s.proc = p
	return old
}

// TestStreamsResolvesOptions: one sink takes its shard from its resume
// checkpoint; several sinks are shards 0..n-1; contradictory options
// are refused.
func TestStreamsResolvesOptions(t *testing.T) {
	a, b := &bindSink{}, &bindSink{}
	one, err := Streams(stream.Sink(a), nil, &ckpt{2, 4}, shardOf)
	if err != nil || len(one) != 1 || one[0].Shard != (Shard{2, 4}) || one[0].Resume == nil {
		t.Fatalf("single sink + resume: %+v, %v", one, err)
	}
	if lo, hi := one[0].Shard.Slice(10); lo != 5 || hi != 7 {
		t.Fatalf("shard 2 of 4 of 10 = [%d,%d)", lo, hi)
	}
	if lo, hi := (Shard{}).Slice(10); lo != 0 || hi != 10 {
		t.Fatalf("whole list = [%d,%d)", lo, hi)
	}
	two, err := Streams[ckpt](nil, []stream.Sink{a, b}, nil, shardOf)
	if err != nil || len(two) != 2 || two[1].Shard != (Shard{1, 2}) || two[0].Resume != nil || two[1].Resume != nil {
		t.Fatalf("two sinks: %+v, %v", two, err)
	}
	for name, bad := range map[string]func() error{
		"no sink":        func() error { _, err := Streams[ckpt](nil, nil, nil, shardOf); return err },
		"both":           func() error { _, err := Streams[ckpt](a, []stream.Sink{b}, nil, shardOf); return err },
		"nil in Sinks":   func() error { _, err := Streams[ckpt](nil, []stream.Sink{a, nil}, nil, shardOf); return err },
		"shard 5 of 4":   func() error { _, err := Streams(stream.Sink(a), nil, &ckpt{5, 4}, shardOf); return err },
		"Resume + Sinks": func() error { _, err := Streams(nil, []stream.Sink{a}, &ckpt{0, 1}, shardOf); return err },
	} {
		if bad() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestRunShardsProcesses: one stream runs on the caller with its sink's
// binding untouched; several each run on their own process with the
// sink rebound to it for the duration and restored after.
func TestRunShardsProcesses(t *testing.T) {
	onSim(func(ctx context.Context) {
		caller := sim.ProcFrom(ctx)
		a, b := &bindSink{proc: caller}, &bindSink{proc: caller}
		one, _ := Streams[ckpt](a, nil, nil, shardOf)
		RunShards(ctx, "t", one, func(ctx context.Context, k int, s Stream[ckpt]) {
			if sim.ProcFrom(ctx) != caller || a.proc != caller {
				t.Error("single stream left the calling process")
			}
		})
		two, _ := Streams[ckpt](nil, []stream.Sink{a, b}, nil, shardOf)
		ran := 0
		RunShards(ctx, "t", two, func(ctx context.Context, k int, s Stream[ckpt]) {
			ran++
			p := sim.ProcFrom(ctx)
			if p == caller || s.Sink.(*bindSink).proc != p {
				t.Errorf("shard %d: on %v, sink bound to %v", k, p, s.Sink.(*bindSink).proc)
			}
		})
		if ran != 2 || a.proc != caller || b.proc != caller {
			t.Errorf("ran %d shards; bindings restored: %v %v", ran, a.proc == caller, b.proc == caller)
		}
	})
}
