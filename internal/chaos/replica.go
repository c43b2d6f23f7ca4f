package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/ndmp"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/internal/wafl"
)

// ReplicaScenario is one seeded chaos run against the mirrored catalog
// journal itself: a stream of catalog appends — dump sets, and seeded
// verdicts on them: a set condemned (MarkDamaged) or expired — through
// a catalog.Mirror whose copies fail one at a time: a copy refuses an
// append, a copy takes a torn frame (part of the record, then the
// crash), or a copy's file is lost between appends. After every failed
// append, and after a lost file, the pair is reopened as a restarted
// serve would reopen it. The invariant is the mirror's whole reason to
// exist: an acknowledged append is never lost — a set stays cataloged,
// a condemned set stays condemned, an expired one expired — and every
// open leaves the two copies byte-identical with no torn bytes left for
// the catalog to drop.
type ReplicaScenario struct {
	Seed    int64
	Appends int // catalog records to push through the gauntlet (default 40)
	// Copies are the pair's durable journals; a nil entry is a fresh
	// in-memory store.
	Copies [2]catalog.Store
}

// ReplicaReport is the outcome of a mirrored-journal chaos run.
type ReplicaReport struct {
	Acked    int // appends acknowledged by the pair
	Lost     int // acked dump sets missing at the end — MUST be 0
	Verdicts int // sets with an acked condemnation or expiry (a set may count twice)
	// Revived counts, over every reopen, acked verdicts no longer in
	// force — a condemned set not Damaged, an expired one not Expired.
	// MUST be 0.
	Revived  int
	Rejected int // appends that failed (a copy refused or tore)
	Faults   int // refusals, torn frames and lost files injected
	// Stranded counts failed appends whose record reached the first
	// copy whole; the next open keeps it and copies it to the second.
	Stranded  int
	Converged bool // the copies were byte-identical after every open
}

// faultyCopy is one copy of the pair with a one-shot fault armed for
// its next Append.
type faultyCopy struct {
	catalog.Store
	fault func(p []byte) error
}

func (c *faultyCopy) Append(p []byte) error {
	if f := c.fault; f != nil {
		c.fault = nil
		return f(p)
	}
	return c.Store.Append(p)
}

var errInjected = errors.New("chaos: injected journal write fault")

// RunReplica executes one mirrored-journal chaos scenario.
func RunReplica(ctx context.Context, s ReplicaScenario) (*ReplicaReport, error) {
	if s.Appends <= 0 {
		s.Appends = 40
	}
	rng := rand.New(rand.NewSource(s.Seed))
	rep := &ReplicaReport{Converged: true}
	var copies [2]*faultyCopy
	for i, st := range s.Copies {
		if st == nil {
			st = &catalog.MemStore{}
		}
		copies[i] = &faultyCopy{Store: st}
	}
	// The sets whose condemnation, and whose expiry, the pair acknowledged.
	condemned, expired := make(map[uint64]bool), make(map[uint64]bool)
	// open reopens the pair and checks what every open must leave.
	open := func() (*catalog.Catalog, error) {
		store, err := catalog.Mirror(copies[0], copies[1])
		if err != nil {
			return nil, err
		}
		cat, err := catalog.Open(store)
		if err != nil {
			return nil, err
		}
		if cat.TornBytes != 0 {
			return nil, fmt.Errorf("chaos: mirrored journal replayed with %d torn bytes", cat.TornBytes)
		}
		a, errA := copies[0].ReadAll()
		b, errB := copies[1].ReadAll()
		if err := errors.Join(errA, errB); err != nil {
			return nil, err
		}
		rep.Converged = rep.Converged && bytes.Equal(a, b)
		for id := range condemned {
			if _, bad := cat.Damaged(id); !bad {
				rep.Revived++
			}
		}
		for id := range expired {
			if _, dead := cat.Expired(id); !dead {
				rep.Revived++
			}
		}
		return cat, nil
	}
	cat, err := open()
	if err != nil {
		return nil, err
	}

	acked := make(map[string]bool) // snap label -> acknowledged
	for i := 0; i <= s.Appends; i++ {
		// Inject at most one fault per append (rolls 0–2), seeded; the
		// last append runs clean.
		label, victim, roll := fmt.Sprintf("s%d", i), copies[rng.Intn(2)], rng.Intn(10)
		if i == s.Appends {
			label, roll = "final", 3
		}
		if roll < 3 {
			rep.Faults++
		}
		switch roll {
		case 0: // the copy refuses the append
			victim.fault = func([]byte) error { return errInjected }
		case 1: // the copy crashes mid-frame
			victim.fault = func(p []byte) error {
				return errors.Join(victim.Store.Append(p[:rng.Intn(len(p))]), errInjected)
			}
		case 2: // the copy's file is lost; the next open finds it empty
			if err := victim.Store.Truncate(0); err != nil {
				return nil, err
			}
			if cat, err = open(); err != nil {
				return nil, err
			}
		}
		// One record in four condemns a cataloged set, one in four
		// expires one (each only once: a repeat journals nothing); the
		// rest, and the last, are dump sets.
		sets, verdict := cat.Sets(), rng.Intn(4)
		var target catalog.DumpSet
		if verdict < 2 && len(sets) > 0 && i < s.Appends {
			target = sets[rng.Intn(len(sets))]
		}
		_, bad := cat.Damaged(target.ID)
		_, dead := cat.Expired(target.ID)
		var err error
		switch {
		case target.ID != 0 && verdict == 0 && !bad:
			err = cat.MarkDamaged(target.ID, int64(1000+i), "chaos: condemned at append "+label)
		case target.ID != 0 && verdict == 1 && !dead:
			err = cat.Expire(target.ID, int64(1000+i))
		default:
			verdict = 2
			_, err = cat.AppendDumpSet(catalog.DumpSet{
				Engine: catalog.Logical, FSID: "vol0", Snap: label,
				Date: int64(1000 + i), Bytes: int64(rng.Intn(1 << 20)),
				Media: []catalog.MediaRef{{Volume: "t-" + label}},
			})
		}
		if err == nil {
			rep.Acked++
			switch verdict {
			case 0:
				condemned[target.ID] = true
			case 1:
				expired[target.ID] = true
			default:
				acked[label] = true
			}
			continue
		}
		if !errors.Is(err, errInjected) {
			return nil, fmt.Errorf("chaos: append %s: %w", label, err)
		}
		rep.Rejected++
		if victim == copies[1] {
			rep.Stranded++
		}
		if cat, err = open(); err != nil {
			return nil, err
		}
	}
	// A fresh open holds every acknowledged set.
	final, err := open()
	if err != nil {
		return nil, err
	}
	for _, ds := range final.Sets() {
		delete(acked, ds.Snap)
	}
	rep.Lost, rep.Verdicts = len(acked), len(condemned)+len(expired)
	return rep, nil
}

// ReplicaFailoverScenario is the end-to-end failover chaos run: a dump
// streams over ndmp to tape host A, whose catalog is mirrored across
// two journal copies that tape host B can open too (the storage is
// shared; no protocol is). Mid-dump host A's machine dies — its link
// severed for good. The client's reconnect redials host B, which opens
// the pair and answers the Hello with fresh media at mark 0; the
// client, holding a higher acked mark, ends the stream as stale and
// the engine resumes from its own last checkpoint. The restored tree
// must be byte-identical for both engines.
// Host A dies a third of the way through the dump (after 4 image
// records).
type ReplicaFailoverScenario struct{ Dataset }

// ReplicaFailoverReport is the outcome of a failover chaos run.
type ReplicaFailoverReport struct {
	Outcome

	StaleHellos int // attempts the client ended with a StaleStreamError
	CatalogSets int // dump sets the mirrored catalog replays at the end
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

	// The two journal copies both hosts reach. Each host opens the pair
	// when it starts serving: A at once, B when the client fails over.
	a, b := &catalog.MemStore{}, &catalog.MemStore{}
	openPair := func() (*catalog.Catalog, error) {
		store, err := catalog.Mirror(a, b)
		if err != nil {
			return nil, err
		}
		return catalog.Open(store)
	}
	var now int64 // virtual seconds, one per dial

	// Two tape hosts behind two links. Streams land on per-stream
	// drives; both hosts append into the shared tapes list, which
	// stays stream-ordered because the harness is single-threaded.
	var tapes []*streamTape
	newHost := func(hostName string) *ndmp.Host {
		h := tapeHost(hostName+"-rt", &tapes, 1, 0)
		h.RegisterMetrics(reg)
		return h
	}
	if _, err = openPair(); err != nil {
		return nil, err
	}
	var catB *catalog.Catalog
	linkA := transport.NewLink(transport.DefaultParams())
	linkB := transport.NewLink(transport.DefaultParams())
	linkA.B().Attach(newHost("a").NewConn().HandleFrame)
	linkB.B().Attach(newHost("b").NewConn().HandleFrame)

	at := &attempts{
		// The dial is the failover redirect: host A while its machine
		// lives, host B — which opens the pair first — once it is gone.
		dial: func() (transport.Conn, error) {
			now++
			if !linkA.Severed() {
				return linkA.A(), nil
			}
			if catB == nil {
				cat, err := openPair()
				if err != nil {
					return nil, fmt.Errorf("chaos: host b opens the catalog: %w", err)
				}
				catB = cat
			}
			return linkB.A(), nil
		},
		cfg: ndmp.Config{Kind: byte(s.Engine), Session: uint64(s.Seed) + 1, Ctx: ctx},
		reg: reg,
		// The active machine dies whole, mid-dump: its link is severed
		// for good.
		sink: tripSink{
			at:   []int{perEngine(0, s.Engine, s.Files/3+1, 4)},
			trip: linkA.Sever,
		},
	}
	job := src.resumable(s.Engine, 0)
	if rep.Resumes, err = engine.Resume(ctx, job, maxResumes, at.open, ndmp.StreamLost); err != nil {
		return nil, fmt.Errorf("chaos: %s dump: %w", s.Engine, err)
	}
	if catB == nil {
		return nil, errors.New("chaos: the dump finished without failing over to host b")
	}
	// A host opens no media for a stream the client has seen
	// acknowledged elsewhere, so each host lands one tape: A the stream
	// it was writing when it died, B the stream the client went on with
	// (a fresh one after a stale Hello, or the same one when A died
	// before acknowledging a record).
	if len(tapes) != 2 {
		return nil, fmt.Errorf("chaos: %d tapes landed on two hosts for %d attempts", len(tapes), rep.Resumes+1)
	}

	// Host B lands the completed dump in its catalog — the
	// acknowledgment the zero-loss guarantee is stated over. Every
	// attempt's tape is the set's.
	ds := job.Set()
	ds.FSID, ds.Snap, ds.Date, ds.Resumed = "chaosvol", src.snap, now, len(tapes) > 1
	for _, t := range tapes {
		ds.Media = append(ds.Media, catalog.MediaRef{Volume: t.label})
	}
	_, damage, err := engine.Land(ctx, catB, ds, nil, func(context.Context, catalog.DumpSet, func(string, int)) ([]stream.Source, error) {
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
	rep.StaleHellos = at.stale

	// The committed dump set must replay out of a fresh open of the
	// pair, and both copies must hold it.
	finalCat, err := openPair()
	if err != nil {
		return nil, fmt.Errorf("chaos: catalog replay after failover: %w", err)
	}
	if !bytes.Equal(a.Buf, b.Buf) {
		return nil, errors.New("chaos: the catalog's copies differ after failover")
	}
	rep.CatalogSets = len(finalCat.Sets())
	if rep.CatalogSets == 0 {
		return nil, errors.New("chaos: committed dump set lost from the mirrored catalog")
	}
	return rep, nil
}
