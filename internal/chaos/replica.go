package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/ndmp"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/internal/wafl"
)

// ReplicaScenario is one seeded chaos run against the replicated
// catalog journal itself: a stream of catalog appends with the
// primary killed or partitioned mid-append, backups crashed and
// rejoined, and stranded unacknowledged tails manufactured in the
// exact window between the primary's durable frame and the first
// backup copy. The invariant is the replication layer's whole reason
// to exist: an acknowledged append is NEVER lost, an unacknowledged
// one never splits the group — after the dust settles all journals
// are byte-identical and replay to the acknowledged history.
type ReplicaScenario struct {
	Seed    int64
	Appends int // catalog records to push through the gauntlet (default 40)
	// Stores are the nodes' durable journals, keyed by ReplicaMembers
	// name; a missing entry is a fresh in-memory store.
	Stores map[string]catalog.Store
}

// ReplicaMembers names the nodes of a RunReplica group.
var ReplicaMembers = []string{"r0", "r1", "r2"}

// ReplicaReport is the outcome of a replicated-journal chaos run.
type ReplicaReport struct {
	Seed        int64
	Acked       int // appends acknowledged by the quorum
	Lost        int // acked appends missing at the end — MUST be 0
	Rejected    int // appends that failed (crash injection, no quorum)
	ViewChanges uint64
	Kills       int
	Partitions  int
	StrandedCut bool // a stranded unacked tail was manufactured and truncated
	Converged   bool // all journals byte-identical at the end
	Metrics     []obs.Point
}

// RunReplica executes one replicated-journal chaos scenario.
func RunReplica(ctx context.Context, s ReplicaScenario) (*ReplicaReport, error) {
	if s.Appends <= 0 {
		s.Appends = 40
	}
	rng := rand.New(rand.NewSource(s.Seed))
	rep := &ReplicaReport{Seed: s.Seed}
	reg := obs.NewRegistry()
	defer func() { rep.Metrics = reg.Snapshot() }()

	members := ReplicaMembers
	cluster, err := replica.New(replica.Config{Members: members, Stores: s.Stores, Ctx: ctx, Registry: reg})
	if err != nil {
		return nil, err
	}
	cat, err := catalog.Open(cluster)
	if err != nil {
		return nil, err
	}

	// down tracks the single injected failure (the fault model the
	// quorum is sized for: one node down at a time, then healed).
	type downNode struct {
		name        string
		partitioned bool
		healAfter   int
	}
	var down *downNode
	heal := func() error {
		if down == nil {
			return nil
		}
		if down.partitioned {
			cluster.Rejoin(down.name)
		} else if err := cluster.Restart(down.name); err != nil {
			return fmt.Errorf("chaos: restart %s: %v", down.name, err)
		}
		down = nil
		return nil
	}

	acked := make(map[string]bool) // snap label -> acknowledged
	for i := 0; i < s.Appends; i++ {
		if down != nil {
			down.healAfter--
			if down.healAfter <= 0 {
				if err := heal(); err != nil {
					return nil, err
				}
			}
		}

		// Inject at most one concurrent fault, seeded.
		if down == nil {
			switch roll := rng.Intn(10); {
			case roll == 0:
				// Kill the primary in the stranded-tail window: the record
				// is durably framed on the primary, no backup has it, the
				// client never acknowledges. The append must fail, the
				// record must stay unacknowledged, and the tail must be
				// truncated when the node rejoins.
				boom := errors.New("chaos: primary crashed mid-append")
				victim := cluster.View().Primary
				cluster.TestHookAfterPrimary = func() error {
					cluster.Kill(victim)
					return boom
				}
				label := fmt.Sprintf("stranded-%d", i)
				_, err := cat.AppendDumpSet(catalog.DumpSet{
					Engine: catalog.Logical, FSID: "vol0", Snap: label,
					Date: int64(1000 + i), Media: []catalog.MediaRef{{Volume: "t0"}},
				})
				cluster.TestHookAfterPrimary = nil
				if !errors.Is(err, boom) {
					return nil, fmt.Errorf("chaos: stranded append returned %v, want injected crash", err)
				}
				rep.Rejected++
				rep.Kills++
				rep.StrandedCut = true
				down = &downNode{name: victim, healAfter: 1 + rng.Intn(4)}
				// The failed append desyncs the catalog handle; reopen over
				// the cluster, exactly as a recovering client would.
				if cat, err = catalog.Open(cluster); err != nil {
					return nil, fmt.Errorf("chaos: reopen after stranded append: %w", err)
				}
				continue
			case roll == 1:
				victim := cluster.View().Primary
				cluster.Kill(victim)
				rep.Kills++
				down = &downNode{name: victim, healAfter: 1 + rng.Intn(4)}
			case roll == 2:
				victim := cluster.View().Primary
				cluster.Isolate(victim)
				rep.Partitions++
				down = &downNode{name: victim, partitioned: true, healAfter: 1 + rng.Intn(4)}
			case roll == 3:
				view := cluster.View()
				victim := view.Backups[rng.Intn(len(view.Backups))]
				if rng.Intn(2) == 0 {
					cluster.Kill(victim)
					rep.Kills++
					down = &downNode{name: victim, healAfter: 1 + rng.Intn(4)}
				} else {
					cluster.Isolate(victim)
					rep.Partitions++
					down = &downNode{name: victim, partitioned: true, healAfter: 1 + rng.Intn(4)}
				}
			}
		}

		label := fmt.Sprintf("s%d", i)
		_, err := cat.AppendDumpSet(catalog.DumpSet{
			Engine: catalog.Logical, FSID: "vol0", Snap: label,
			Date: int64(1000 + i), Bytes: int64(rng.Intn(1 << 20)),
			Media: []catalog.MediaRef{{Volume: fmt.Sprintf("t%d", i)}},
		})
		if err != nil {
			rep.Rejected++
			if cat, err = catalog.Open(cluster); err != nil {
				return nil, fmt.Errorf("chaos: reopen after failed append: %w", err)
			}
			continue
		}
		rep.Acked++
		acked[label] = true
	}

	// Heal everything and force one last replicated append so every
	// node converges.
	if err := heal(); err != nil {
		return nil, err
	}
	if _, err := cat.AppendDumpSet(catalog.DumpSet{
		Engine: catalog.Logical, FSID: "vol0", Snap: "final",
		Date: 9999, Media: []catalog.MediaRef{{Volume: "tf"}},
	}); err != nil {
		return nil, fmt.Errorf("chaos: final append: %w", err)
	}

	// Invariant 1: all journals byte-identical.
	ref := cluster.Journal(members[0])
	rep.Converged = true
	for _, m := range members[1:] {
		if !bytes.Equal(cluster.Journal(m), ref) {
			rep.Converged = false
		}
	}

	// Invariant 2: a fresh replay holds every acknowledged set (and
	// no stranded one).
	final, err := catalog.Open(cluster)
	if err != nil {
		return nil, fmt.Errorf("chaos: final replay: %w", err)
	}
	if final.TornBytes != 0 {
		return nil, fmt.Errorf("chaos: replicated journal replayed with %d torn bytes", final.TornBytes)
	}
	present := make(map[string]bool)
	for _, ds := range final.Sets() {
		present[ds.Snap] = true
	}
	for label := range acked {
		if !present[label] {
			rep.Lost++
		}
	}
	rep.ViewChanges = cluster.ViewChanges()
	return rep, nil
}

// ReplicaFailoverScenario is the end-to-end failover chaos run: a
// dump streams over ndmp to the active tape host while the catalog
// journal replicates across three nodes; mid-dump the active host's
// machine dies — its link severed for good, its co-located replica
// killed. The view service promotes a standby, the client's reconnect
// loop redials toward the host the new view advertises, the standby
// answers the stale stream with the checkpoint the replicated catalog
// vouches for, and the engine resumes from exactly that
// replicated-acknowledged checkpoint. The restored tree must be
// byte-identical for both engines.
type ReplicaFailoverScenario struct {
	Dataset

	// FailAfterRecords kills the active tape host after this many
	// accepted records (0 = a third of the way through, at least 1).
	FailAfterRecords int

	CheckpointEvery int
	MaxResumes      int
}

// ReplicaFailoverReport is the outcome of a failover chaos run.
type ReplicaFailoverReport struct {
	Outcome

	ViewChanges uint64
	StaleHellos int // standby Hellos answered from the replicated catalog
	CatalogSets int // dump sets committed through the replicated catalog
}

// RunReplicaFailover executes one tape-host failover scenario.
func RunReplicaFailover(ctx context.Context, s ReplicaFailoverScenario) (*ReplicaFailoverReport, error) {
	s.defaults(24)
	rep := &ReplicaFailoverReport{Outcome: Outcome{Engine: s.Engine, Seed: s.Seed}}
	reg := obs.NewRegistry()
	defer func() { rep.Metrics = reg.Snapshot() }()

	src, err := newSource(ctx, s.Dataset, storage.NewMemDevice(8192), wafl.Options{})
	if err != nil {
		return nil, err
	}

	// Replicated catalog: node r0 is co-located with tape host A, so
	// the machine death that severs host A's link also kills r0.
	cluster, err := replica.New(replica.Config{
		Members: []string{"r0", "r1", "r2"}, Ctx: ctx, Registry: reg,
	})
	if err != nil {
		return nil, err
	}
	cat, err := catalog.Open(cluster)
	if err != nil {
		return nil, err
	}

	// Two tape hosts behind two links. Streams land on per-stream
	// drives; both hosts append into the shared tapes list, which
	// stays stream-ordered because the harness is single-threaded.
	var tapes []*streamTape
	newHost := func(hostName string) *ndmp.Host {
		h := tapeHost(hostName+"-rt", &tapes, 1, 0)
		h.Replicate = func(session uint64, stream int, acked uint64) error {
			return cat.AppendSessionCheckpoint(catalog.SessionCheckpoint{
				Session: session, Stream: int32(stream), Seq: acked,
				Time: cluster.Now().Unix(),
			})
		}
		h.Progress = func(session uint64, stream int) (uint64, bool) {
			return cat.SessionProgress(session, stream)
		}
		h.RegisterMetrics(reg)
		return h
	}
	hostA := newHost("a")
	hostB := newHost("b")
	linkA := transport.NewLink(transport.DefaultParams())
	linkB := transport.NewLink(transport.DefaultParams())
	linkA.B().Attach(hostA.HandleFrame)
	linkB.B().Attach(hostB.HandleFrame)

	at := &attempts{
		// The dial is the failover redirect: it asks the view service
		// which replica is primary and dials the tape host co-located
		// with it. Each dial advances the virtual clock, so a redial
		// loop doubles as the failure detector's time source.
		dial: func() (transport.Conn, error) {
			cluster.Advance(time.Second)
			v := cluster.Heartbeat()
			link := linkB
			if v.Primary == "r0" {
				link = linkA
			}
			if link.Down() {
				link.Heal() // no-op if severed: a dead machine stays dead
			}
			if link.Severed() {
				return nil, fmt.Errorf("chaos: tape host for %s is gone", v.Primary)
			}
			return link.A(), nil
		},
		cfg: ndmp.Config{Kind: byte(s.Engine), Session: uint64(s.Seed) + 1, Ctx: ctx},
		reg: reg,
		// The active machine dies whole, mid-dump: tape host link
		// severed permanently, co-located catalog replica killed.
		sink: tripSink{
			at: []int{perEngine(s.FailAfterRecords, s.Engine, s.Files/3+1, 4)},
			trip: func() {
				linkA.Sever()
				cluster.Kill("r0")
			},
		},
	}
	job, maxResumes := src.resumable(s.Engine, s.CheckpointEvery, s.MaxResumes)
	if rep.Resumes, err = engine.Resume(ctx, job, maxResumes, at.open, ndmp.StreamLost); err != nil {
		return nil, fmt.Errorf("chaos: %s dump: %w", s.Engine, err)
	}

	// Land the completed dump in the replicated catalog — the
	// acknowledgment the zero-loss guarantee is stated over. An attempt
	// can bind more than one tape (a reconnect that lands on the
	// standby opens a fresh one), and every one of them is the set's.
	ds := job.Set()
	ds.FSID, ds.Snap, ds.Date, ds.Resumed = "chaosvol", src.snap, cluster.Now().Unix(), len(tapes) > 1
	for _, t := range tapes {
		ds.Media = append(ds.Media, catalog.MediaRef{Volume: t.label})
	}
	_, damage, err := engine.Land(ctx, cat, ds, nil, func(context.Context, catalog.DumpSet, func(string, int)) ([]stream.Source, error) {
		return sources(tapes)
	})
	if err == nil && damage != "" {
		err = errors.New(damage)
	}
	if err != nil {
		return nil, fmt.Errorf("chaos: landing dump set: %w", err)
	}

	if err := rep.restore(ctx, src, tapes); err != nil {
		return nil, err
	}
	rep.ViewChanges = cluster.ViewChanges()
	rep.StaleHellos = hostB.Stats().Stales + hostA.Stats().Stales

	// The committed dump set must replay out of the replicated
	// catalog — from the surviving nodes only.
	finalCat, err := catalog.Open(cluster)
	if err != nil {
		return nil, fmt.Errorf("chaos: catalog replay after failover: %w", err)
	}
	rep.CatalogSets = len(finalCat.Sets())
	if rep.CatalogSets == 0 {
		return nil, errors.New("chaos: committed dump set lost from replicated catalog")
	}
	return rep, nil
}
