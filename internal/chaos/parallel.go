package chaos

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/tape"
	"repro/internal/wafl"
)

// ParallelScenario drives one drive of an N-drive parallel dump
// offline mid-stream with a persistent fault. The property under test
// is the parallel pipeline's isolation contract: sibling shards run to
// completion, the faulted shard comes back with a per-shard resume
// checkpoint, a Dump resuming from that checkpoint redumps only that
// slice onto a replacement drive, and the salvaged torn stream plus the
// continuation plus the sibling streams restore byte-identically.
type ParallelScenario struct {
	Dataset
	// Drives is the parallel fan-out width (default 4). The faulted
	// drive index is seed-derived.
	Drives int
	// OfflineAfterRecords arms the persistent fault: the chosen drive
	// latches offline after that many tape records. Defaults are
	// engine-specific (10 logical, 4 image — image streams pack far
	// more data per record) so the fault usually lands after the first
	// durable checkpoint.
	OfflineAfterRecords int

	CheckpointEvery int // files (logical) or blocks (physical)
}

// ParallelReport is the outcome of a ParallelScenario.
type ParallelReport struct {
	Outcome
	Faulted int // drive index that went offline

	// Siblings counts shards that completed despite the fault
	// (invariant: Drives-1).
	Siblings int
	// Resumed is true when the torn shard carried a durable checkpoint
	// with real progress (at least one file or block on media), so the
	// continuation dump skipped work instead of redumping the shard.
	Resumed bool
	// Skipped is what the resume skipped: files (logical) or blocks
	// (physical).
	Skipped int
}

// RunParallel executes one parallel-shard-fault scenario. An error
// means the scenario could not be evaluated; callers check
// Report.Identical and Report.Siblings for the invariant.
func RunParallel(ctx context.Context, s ParallelScenario) (*ParallelReport, error) {
	if s.Drives <= 1 {
		s.Drives = 4
	}
	s.OfflineAfterRecords = perEngine(s.OfflineAfterRecords, s.Engine, 10, 4)
	s.defaults(48)
	s.CheckpointEvery = perEngine(s.CheckpointEvery, s.Engine, 2, 16)
	rep := &ParallelReport{Outcome: Outcome{Engine: s.Engine, Seed: s.Seed}, Faulted: int(s.Seed) % s.Drives}

	// Clean storage — the fault in this scenario lives on one drive.
	src, err := newSource(ctx, s.Dataset, storage.NewMemDevice(16384), wafl.Options{})
	if err != nil {
		return nil, err
	}
	tapes := make([]*streamTape, s.Drives)
	sinks := make([]stream.Sink, s.Drives)
	for k := range tapes {
		if tapes[k], err = newStreamTape(fmt.Sprintf("t%d", k), 1, 0); err != nil {
			return nil, err
		}
		sinks[k] = tapes[k]
	}
	tapes[rep.Faulted].Drive.InjectFaults(tape.FaultConfig{OfflineAfterRecords: s.OfflineAfterRecords})

	job := src.dump(s.Engine, s.CheckpointEvery, 2)
	err = job.Fan(ctx, sinks)
	if err == nil {
		return nil, fmt.Errorf("chaos: fault never fired (stream too short for OfflineAfterRecords=%d)", s.OfflineAfterRecords)
	}
	if !errors.Is(err, tape.ErrOffline) {
		return nil, fmt.Errorf("chaos: parallel %s dump failed outside the armed fault: %w", s.Engine, err)
	}
	// The isolation contract: the faulted shard failed offline, every
	// sibling ran to completion.
	shards := job.Outcomes()
	for k, o := range shards {
		if k == rep.Faulted {
			if !errors.Is(o.Err, tape.ErrOffline) {
				return nil, fmt.Errorf("chaos: faulted shard %d ended with %v, want offline", k, o.Err)
			}
			continue
		}
		if o.Err != nil {
			return nil, fmt.Errorf("chaos: sibling shard %d failed too: %w", k, o.Err)
		}
		if o.Bytes == 0 {
			return nil, fmt.Errorf("chaos: sibling shard %d wrote nothing", k)
		}
		rep.Siblings++
	}
	rep.Resumed = shards[rep.Faulted].Durable

	// The operator swaps in a replacement drive; the continuation
	// resumes from the torn shard's checkpoint, which names its slice
	// of the work, and redumps only that.
	cont, err := newStreamTape("cont", 1, 0)
	if err != nil {
		return nil, err
	}
	rest := job.Shard(rep.Faulted)
	if err := rest.To(ctx, cont); err != nil {
		return nil, fmt.Errorf("chaos: resuming torn shard: %w", err)
	}
	rep.Skipped = rest.Outcomes()[0].Skipped

	// Restore the first pass's streams — siblings complete, the torn
	// one salvaged up to its tear — then the continuation.
	if err := rep.restore(ctx, src, append(tapes, cont)); err != nil {
		return nil, err
	}
	return rep, nil
}
