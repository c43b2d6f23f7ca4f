package chaos

import (
	"testing"

	"repro/internal/catalog"
)

// TestChaosParallelShardFault: one drive of a 4-drive parallel dump
// latches offline mid-stream (persistent tape fault). For both engines
// and every seed: the three sibling shards complete, the faulted shard
// resumes from its per-shard checkpoint on a replacement drive, and
// the restored tree is byte-identical to the source.
func TestChaosParallelShardFault(t *testing.T) {
	for _, engine := range []catalog.Engine{catalog.Logical, catalog.Image} {
		resumed := 0
		for seed := int64(1); seed <= int64(seedCount()); seed++ {
			rep, err := RunParallel(ctx, ParallelScenario{Dataset: Dataset{Seed: seed, Engine: engine}})
			if err != nil {
				t.Fatalf("%s seed %d: %v", engine, seed, err)
			}
			if rep.Siblings != 3 {
				t.Fatalf("%s seed %d: %d sibling shards completed, want 3", engine, seed, rep.Siblings)
			}
			if !rep.Identical {
				t.Fatalf("%s seed %d: restored tree differs at %v", engine, seed, rep.DiffPaths)
			}
			if rep.Resumed {
				resumed++
				if rep.Skipped == 0 {
					t.Errorf("%s seed %d: resume had a checkpoint but skipped nothing", engine, seed)
				}
			}
		}
		if resumed == 0 {
			t.Errorf("%s: no seed exercised checkpoint resume; lower OfflineAfterRecords", engine)
		}
	}
}

// TestChaosParallelFaultIsTerminalPerShard: a transient-capable drive
// config must not mask the isolation contract — with a persistent
// offline latch the faulted shard's error survives retries while the
// sibling drives never see it.
func TestChaosParallelFaultIsTerminalPerShard(t *testing.T) {
	rep, err := RunParallel(ctx, ParallelScenario{
		Dataset:             Dataset{Seed: 3, Engine: catalog.Image},
		Drives:              4,
		OfflineAfterRecords: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faulted != 3%4 {
		t.Fatalf("faulted drive %d, want seed-derived %d", rep.Faulted, 3%4)
	}
	if !rep.Identical || rep.Siblings != 3 {
		t.Fatalf("isolation contract violated: siblings=%d identical=%v diffs=%v",
			rep.Siblings, rep.Identical, rep.DiffPaths)
	}
}
