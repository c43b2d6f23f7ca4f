package chaos

import (
	"path/filepath"
	"testing"

	"repro/internal/catalog"
)

// TestChaosReplicatedJournal: the replicated catalog journal under a
// seeded gauntlet of primary kills, partitions, backup crashes and
// stranded-tail injections. The zero-loss invariant: no acknowledged
// append is ever missing from the final replay, and every node's
// journal converges byte-for-byte once the faults heal. Every seed runs
// twice: over in-memory stores and over the journal files `serve
// -standby` keeps, so kill/restart reloads real files.
func TestChaosReplicatedJournal(t *testing.T) {
	faults, stranded := 0, 0
	for run := 0; run < 2*seedCount(); run++ {
		seed, onFiles := int64(run/2+1), run%2 == 1
		s := ReplicaScenario{Seed: seed}
		if onFiles {
			dir := t.TempDir()
			s.Stores = make(map[string]catalog.Store)
			for _, m := range ReplicaMembers {
				fs, err := catalog.OpenFileStore(filepath.Join(dir, m+".catalog"))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { fs.Close() })
				s.Stores[m] = fs
			}
		}
		rep, err := RunReplica(ctx, s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Lost != 0 {
			t.Fatalf("seed %d: %d acknowledged dump sets lost (acked=%d kills=%d partitions=%d views=%d)",
				seed, rep.Lost, rep.Acked, rep.Kills, rep.Partitions, rep.ViewChanges)
		}
		if !rep.Converged {
			t.Fatalf("seed %d: node journals did not converge after healing", seed)
		}
		if rep.Acked == 0 {
			t.Fatalf("seed %d: no append ever acknowledged", seed)
		}
		faults += rep.Kills + rep.Partitions
		if rep.StrandedCut {
			stranded++
		}
		t.Logf("seed %d (files=%v): acked=%d rejected=%d kills=%d partitions=%d views=%d stranded=%v",
			seed, onFiles, rep.Acked, rep.Rejected, rep.Kills, rep.Partitions, rep.ViewChanges, rep.StrandedCut)
	}
	if faults == 0 {
		t.Errorf("no faults injected across all seeds; the sweep proved nothing")
	}
	if stranded == 0 {
		t.Errorf("no stranded-tail window exercised across all seeds")
	}
}

// TestChaosTapeHostFailover: mid-dump the active tape host's machine
// dies whole — link severed, co-located catalog replica killed. The
// view service must promote a standby, the session must redirect to
// the standby host, the engine must resume from the replicated
// checkpoint, and the restored tree must be byte-identical — for both
// engines.
func TestChaosTapeHostFailover(t *testing.T) {
	for _, engine := range []catalog.Engine{catalog.Logical, catalog.Image} {
		resumed := 0
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
			if rep.ViewChanges == 0 {
				t.Fatalf("%s seed %d: host died but the view never changed", engine, seed)
			}
			if rep.CatalogSets == 0 {
				t.Fatalf("%s seed %d: dump set missing from replicated catalog", engine, seed)
			}
			resumed += rep.Resumes
			t.Logf("%s seed %d: resumes=%d views=%d staleHellos=%d sets=%d",
				engine, seed, rep.Resumes, rep.ViewChanges, rep.StaleHellos, rep.CatalogSets)
		}
		if resumed == 0 {
			t.Errorf("%s: failover never forced a checkpoint resume across all seeds", engine)
		}
	}
}
