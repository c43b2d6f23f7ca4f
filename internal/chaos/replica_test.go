package chaos

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/catalog"
)

// TestChaosReplicatedJournal: the mirrored catalog journal under a
// seeded gauntlet of one fault per append — a copy refuses the append,
// a copy takes a torn frame, or a copy's file is lost — with the pair
// reopened after each, as a restarted serve would. The appends are dump
// sets and seeded verdicts on them (condemned, expired). The zero-loss
// invariant: no acknowledged dump set is ever missing from the final
// replay, no acknowledged verdict is out of force after any reopen, and
// every open leaves both copies byte-identical with no torn bytes.
// Every seed runs twice: over in-memory stores and over the journal
// files `serve -standby` keeps.
func TestChaosReplicatedJournal(t *testing.T) {
	faults, stranded, verdicts := 0, 0, 0
	for run := 0; run < 2*seedCount(); run++ {
		seed, onFiles := int64(run/2+1), run%2 == 1
		s := ReplicaScenario{Seed: seed}
		if onFiles {
			dir := t.TempDir()
			for i, name := range []string{"primary.catalog", "standby.catalog"} {
				fs, err := catalog.OpenFileStore(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { fs.Close() })
				s.Copies[i] = fs
			}
		}
		rep, err := RunReplica(ctx, s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Lost != 0 {
			t.Fatalf("seed %d: %d acknowledged dump sets lost (acked=%d faults=%d)",
				seed, rep.Lost, rep.Acked, rep.Faults)
		}
		if rep.Revived != 0 {
			t.Fatalf("seed %d: %d acknowledged condemnations or expiries out of force after a reopen", seed, rep.Revived)
		}
		if !rep.Converged {
			t.Fatalf("seed %d: the copies differed after an open", seed)
		}
		if rep.Acked == 0 {
			t.Fatalf("seed %d: no append ever acknowledged", seed)
		}
		faults += rep.Faults
		stranded += rep.Stranded
		verdicts += rep.Verdicts
		t.Logf("seed %d (files=%v): acked=%d verdicts=%d rejected=%d faults=%d stranded=%d",
			seed, onFiles, rep.Acked, rep.Verdicts, rep.Rejected, rep.Faults, rep.Stranded)
	}
	if faults == 0 {
		t.Errorf("no faults injected across all seeds; the sweep proved nothing")
	}
	if stranded == 0 {
		t.Errorf("no failed append ever stranded its record on the first copy across all seeds")
	}
	if verdicts == 0 {
		t.Errorf("no condemnation or expiry ever acknowledged across all seeds")
	}
}

// forgetfulStore is a journal copy that acknowledges every append but
// silently keeps none that condemns a set.
type forgetfulStore struct{ catalog.MemStore }

func (s *forgetfulStore) Append(p []byte) error {
	if bytes.Contains(p, []byte("chaos: condemned")) {
		return nil
	}
	return s.MemStore.Append(p)
}

// TestChaosReplicaOracleSeesRevivedCondemnation: the gauntlet's verdict
// check is live. Over a pair whose copies both drop condemnations, a
// condemned set comes back healthy at the next reopen, and RunReplica
// must count it.
func TestChaosReplicaOracleSeesRevivedCondemnation(t *testing.T) {
	rep, err := RunReplica(ctx, ReplicaScenario{Seed: 1, Copies: [2]catalog.Store{&forgetfulStore{}, &forgetfulStore{}}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Revived == 0 {
		t.Fatalf("condemnations dropped by both copies went unseen: %+v", rep)
	}
}

// TestChaosTapeHostFailover: mid-dump the active tape host's machine
// dies — its link severed for good. The client must redirect to the
// standby host, which opens the mirrored catalog and answers the Hello
// with fresh media; the client, whose acked mark is higher, ends the
// stream with a StaleStreamError, the engine must resume from its own
// last checkpoint, and the restored tree must be byte-identical — for
// both engines. Every resume is one such stale stream. (A host that
// dies before the client has seen any record acknowledged leaves its
// mark at 0: the standby takes the stream as new and the session
// replays its window, with no resume — logical seed 7.)
func TestChaosTapeHostFailover(t *testing.T) {
	for _, engine := range []catalog.Engine{catalog.Logical, catalog.Image} {
		resumed, stale := 0, 0
		for seed := int64(1); seed <= int64(seedCount()); seed++ {
			rep, err := RunReplicaFailover(ctx, ReplicaFailoverScenario{
				Dataset: Dataset{Seed: seed, Engine: engine},
			})
			if err != nil {
				t.Fatalf("%s seed %d: %v", engine, seed, err)
			}
			if !rep.Identical {
				t.Fatalf("%s seed %d: restored tree differs after failover: %v",
					engine, seed, rep.DiffPaths)
			}
			if rep.StaleHellos != rep.Resumes {
				t.Fatalf("%s seed %d: %d stale streams seen by the client for %d resumes",
					engine, seed, rep.StaleHellos, rep.Resumes)
			}
			if rep.CatalogSets == 0 {
				t.Fatalf("%s seed %d: dump set missing from the mirrored catalog", engine, seed)
			}
			resumed += rep.Resumes
			stale += rep.StaleHellos
			t.Logf("%s seed %d: resumes=%d staleHellos=%d sets=%d",
				engine, seed, rep.Resumes, rep.StaleHellos, rep.CatalogSets)
		}
		if resumed == 0 || stale == 0 {
			t.Errorf("%s: failover never forced a checkpoint resume from a stale Hello across all seeds", engine)
		}
	}
}
