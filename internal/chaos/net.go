package chaos

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/ndmp"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wafl"
)

// NetScenario is one seeded network-fault chaos run: the dump engine
// on a clean filesystem drives its stream through an ndmp session to
// a remote tape host across a hostile link. There are no storage or
// media faults — every difference after restore is the network layer
// failing to deliver exactly-once, in-order records, so the invariant
// is strict: the restored tree must be byte-identical.
//
// Faults come at two severities. Link faults (drops, duplicates,
// corrupt frames, reorders, hard cuts from Net.CutAfterFrames) are
// recoverable: the session replays its window after a gap nack or a
// reconnect and the dump never notices. One-way partitions
// (PartitionAfterRecords) black-hole the host's acks while the
// client's frames still arrive; the session declares the peer dead
// within its deadline and the engine falls back to its checkpoint
// Resume machinery on a fresh stream — the two fault-tolerance layers
// composed, which is the point of the scenario.
type NetScenario struct {
	Dataset

	// Net arms the link. CutAfterFrames entries are two-way partitions
	// healed by the session's redial; CorruptAtFrames mangle frames in
	// flight and are absorbed by replay.
	Net transport.FaultConfig
	// PartitionAfterRecords lists cumulative accepted-record counts;
	// when the dump passes one, the host→client direction is
	// black-holed until the next attempt heals it. Each entry forces
	// one dead-peer detection and one engine-level resume.
	PartitionAfterRecords []int
	// Window is the session send window (0 = ndmp default).
	Window int

	TapeCapacity int64 // per cartridge on the remote host, 0 = unlimited
	Cartridges   int   // per stream drive, min 1

	CheckpointEvery int // files (logical) or blocks (physical)
}

// NetReport is the outcome of a network chaos scenario. Its Metrics
// are the host's totals across all streams, plus the last stream's
// session counters (each re-dial re-registers its collectors under the
// session id).
type NetReport struct {
	Outcome

	Reconnects int // session redials that succeeded
	Replayed   int // record retransmissions (gap, EOM or reconnect)
	Partitions int // hard cuts plus injected one-way partitions
	Net        transport.FaultStats
	Host       ndmp.HostStats
}

// RunNet executes one network scenario. An error means the scenario
// could not be evaluated; callers check Report.Identical for the
// invariant.
func RunNet(ctx context.Context, s NetScenario) (*NetReport, error) {
	s.defaults(24)
	rep := &NetReport{Outcome: Outcome{Engine: s.Engine, Seed: s.Seed}}
	reg := obs.NewRegistry()
	defer func() { rep.Metrics = reg.Snapshot() }()

	// Clean source filesystem: the network is the only chaos here.
	src, err := newSource(ctx, s.Dataset, storage.NewMemDevice(8192), wafl.Options{})
	if err != nil {
		return nil, err
	}

	// Remote tape host: one drive per stream, so a resumed dump's
	// fresh stream lands on fresh media exactly like the offline
	// scenarios' replacement drives.
	fc := s.Net
	if fc.Seed == 0 {
		fc.Seed = s.Seed
	}
	link := transport.NewLink(transport.DefaultParams())
	link.Arm(fc)
	var tapes []*streamTape
	host := tapeHost("rt", &tapes, s.Cartridges, s.TapeCapacity)
	host.RegisterMetrics(reg)
	link.B().Attach(host.NewConn().HandleFrame)

	at := &attempts{
		dial: func() (transport.Conn, error) {
			if link.Down() {
				link.Heal()
			}
			return link.A(), nil
		},
		cfg: ndmp.Config{Kind: byte(s.Engine), Session: uint64(s.Seed) + 1, Window: s.Window, Ctx: ctx},
		reg: reg,
		// A one-way partition from the previous attempt is an operator
		// problem solved before the retry; redials heal hard cuts
		// themselves.
		fresh: link.Heal,
		// After the k-th accepted record of a scheduled partition the
		// host's responses stop arriving, and the next sound the client
		// hears is its own dead-peer deadline.
		sink: tripSink{
			at:   append([]int(nil), s.PartitionAfterRecords...),
			trip: func() { link.PartitionOneWay(false) },
		},
	}
	job := src.resumable(s.Engine, s.CheckpointEvery)
	if rep.Resumes, err = engine.Resume(ctx, job, maxResumes, at.open, ndmp.StreamLost); err != nil {
		return nil, fmt.Errorf("chaos: %s dump: %w", s.Engine, err)
	}
	rep.Reconnects, rep.Replayed = at.reconnects, at.replayed
	rep.Net = link.Stats()
	rep.Partitions = at.sink.tripped + rep.Net.Cuts
	rep.Host = host.Stats()

	if err := rep.restore(ctx, src, tapes); err != nil {
		return nil, err
	}
	return rep, nil
}
