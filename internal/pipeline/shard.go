package pipeline

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/stream"
)

// Shard names the slice of a dump's work list (files, blocks) one
// stream carries: slice K of N, or the whole list when N is 0 — a
// single stream that is not one of a set. The engines record it in the
// stream's checkpoints.
type Shard struct{ K, N int }

// Slice cuts the shard's contiguous share out of a list of length
// total. The split is a pure function of total and N.
func (s Shard) Slice(total int) (lo, hi int) {
	if s.N <= 1 {
		return 0, total
	}
	return total * s.K / s.N, total * (s.K + 1) / s.N
}

// Stream is one output of a dump: where it goes, which slice of the
// work list it carries, and the checkpoint (the engine's type C) it
// resumes from, if any.
type Stream[C any] struct {
	Sink   stream.Sink
	Shard  Shard
	Resume *C
}

// Streams resolves the dump options both engines share into output
// streams. A single sink is the one-element case; its shard is the one
// its resume checkpoint names (shardOf reads it), so resuming one
// stream of a set onto a replacement sink needs no option. Several
// sinks are shards 0..n-1 of n, each dumped from its start.
func Streams[C any](sink stream.Sink, sinks []stream.Sink, resume *C, shardOf func(*C) Shard) ([]Stream[C], error) {
	if len(sinks) == 0 {
		if sink == nil {
			return nil, errors.New("nil sink")
		}
		s := Stream[C]{Sink: sink, Resume: resume}
		if resume != nil {
			s.Shard = shardOf(resume)
			if s.Shard.N != 0 && (s.Shard.K < 0 || s.Shard.K >= s.Shard.N) {
				return nil, fmt.Errorf("resume checkpoint names shard %d of %d", s.Shard.K, s.Shard.N)
			}
		}
		return []Stream[C]{s}, nil
	}
	if sink != nil {
		return nil, errors.New("Sink and Sinks are mutually exclusive")
	}
	if resume != nil {
		return nil, errors.New("Resume continues one stream: give its Sink, not Sinks")
	}
	streams := make([]Stream[C], len(sinks))
	for k, sink := range sinks {
		if sink == nil {
			return nil, fmt.Errorf("nil sink %d", k)
		}
		streams[k] = Stream[C]{Sink: sink, Shard: Shard{k, len(sinks)}}
	}
	return streams, nil
}

// RunShards runs shard for every stream and returns when all are done:
// a single stream on the calling process, several side by side on a
// plain Group — each on its own process, to which its sink is rebound
// for the shard's lifetime — so one stream's failure leaves its
// siblings running. Shard outcomes, errors included, are the callback's
// to record.
func RunShards[C any](ctx context.Context, name string, streams []Stream[C], shard func(ctx context.Context, k int, s Stream[C])) {
	if len(streams) == 1 {
		shard(ctx, 0, streams[0])
		return
	}
	g := NewGroup(ctx)
	for k, s := range streams {
		g.Go(fmt.Sprintf("%s.shard%d", name, k), func(ctx context.Context) error {
			defer stream.BindCtxProc(ctx, s.Sink)()
			shard(ctx, k, s)
			return nil
		})
	}
	g.Wait() // the stages return nil
}
