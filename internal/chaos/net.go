package chaos

import (
	"context"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/ndmp"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/transport"
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
// within its deadline and the engine falls back to PR 2's checkpoint
// Resume machinery on a fresh stream — the two fault-tolerance layers
// composed, which is the point of the scenario.
type NetScenario struct {
	Seed   int64
	Engine catalog.Engine

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

	Files           int
	MeanFileSize    int
	CheckpointEvery int // files (logical) or blocks (physical)
	MaxResumes      int
}

// NetReport is the outcome of a network chaos scenario.
type NetReport struct {
	Engine catalog.Engine
	Seed   int64

	Resumes    int // engine-level checkpoint resumes (streams - 1)
	Reconnects int // session redials that succeeded
	Replayed   int // record retransmissions (gap, EOM or reconnect)
	Partitions int // hard cuts plus injected one-way partitions
	Net        transport.FaultStats
	Host       ndmp.HostStats

	DiffPaths []string
	Identical bool

	// Metrics is the run's final registry snapshot: the host's totals
	// across all streams, plus the last stream's session counters
	// (each re-dial re-registers its collectors under the session id).
	Metrics []obs.Point
}

// netSink adapts a session to the engines' sink contract while
// injecting the scheduled one-way partitions: after the k-th accepted
// record the host's responses stop arriving, and the next sound the
// client hears is its own dead-peer deadline.
type netSink struct {
	sess     *ndmp.Session // the current attempt's
	link     *transport.Link
	written  int
	schedule []int
	injected int
}

func (n *netSink) WriteRecord(rec []byte) error {
	if err := n.sess.WriteRecord(rec); err != nil {
		return err
	}
	n.written++
	if len(n.schedule) > 0 && n.written >= n.schedule[0] {
		n.link.PartitionOneWay(false)
		n.schedule = n.schedule[1:]
		n.injected++
	}
	return nil
}

func (n *netSink) NextVolume() error { return n.sess.NextVolume() }

// Sync forwards the engines' checkpoint drain to the session, which
// is what makes a checkpoint mean "acknowledged durable" over the
// wire. Without it a resume could trust a checkpoint the host never
// received and silently lose the records in between.
func (n *netSink) Sync() error { return n.sess.Sync() }

// RunNet executes one network scenario. An error means the scenario
// could not be evaluated; callers check Report.Identical for the
// invariant.
func RunNet(ctx context.Context, s NetScenario) (*NetReport, error) {
	if s.Files <= 0 {
		s.Files = 24
	}
	if s.MeanFileSize <= 0 {
		s.MeanFileSize = 12 << 10
	}
	s.CheckpointEvery = perEngine(s.CheckpointEvery, s.Engine, 2, 32)
	if s.MaxResumes <= 0 {
		s.MaxResumes = 4
	}
	rep := &NetReport{Engine: s.Engine, Seed: s.Seed}
	reg := obs.NewRegistry()
	defer func() { rep.Metrics = reg.Snapshot() }()

	// Clean source filesystem: the network is the only chaos here.
	src, err := newSource(ctx, s.Seed, s.Files, s.MeanFileSize, 8192)
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
	host := ndmp.NewHost(func(h ndmp.Hello) (ndmp.Sink, error) {
		t, err := newStreamTape(fmt.Sprintf("rt%d", h.Stream), s.Cartridges, s.TapeCapacity)
		if err != nil {
			return nil, err
		}
		tapes = append(tapes, t)
		return t.sink, nil
	})
	host.RegisterMetrics(reg)
	link.B().Attach(host.HandleFrame)
	dial := func() (transport.Conn, error) {
		if link.Down() {
			link.Heal()
		}
		return link.A(), nil
	}

	sink := &netSink{link: link, schedule: append([]int(nil), s.PartitionAfterRecords...)}
	rep.Resumes, err = engine.Resume(ctx, src.dump(s.Engine, s.CheckpointEvery, 0), s.MaxResumes,
		func(attempt int) (stream.Sink, func(error) error, error) {
			// A one-way partition from the previous attempt is an
			// operator problem solved before the retry; redials heal
			// hard cuts themselves.
			link.Heal()
			sess, err := ndmp.Dial(dial, ndmp.Config{
				Kind: byte(s.Engine), Session: uint64(s.Seed) + 1, Stream: attempt,
				Window: s.Window, Ctx: ctx,
			})
			if err != nil {
				return nil, nil, fmt.Errorf("chaos: dial stream %d: %w", attempt, err)
			}
			sess.RegisterMetrics(reg)
			sink.sess = sess
			return sink, func(err error) error {
				if err == nil {
					err = sess.Close()
				}
				st := sess.Stats()
				rep.Reconnects += st.Reconnects
				rep.Replayed += st.Replayed
				return err
			}, nil
		}, ndmp.StreamLost)
	if err != nil {
		return nil, fmt.Errorf("chaos: %s dump: %w", s.Engine, err)
	}
	rep.Net = link.Stats()
	rep.Partitions = sink.injected + rep.Net.Cuts
	rep.Host = host.Stats()

	// Every stream but the last tore when its session died; restore
	// salvages those, exactly like the offline-drive scenarios.
	if rep.DiffPaths, err = src.restoreDiff(ctx, s.Engine, sources(tapes)); err != nil {
		return nil, err
	}
	rep.Identical = len(rep.DiffPaths) == 0
	return rep, nil
}
