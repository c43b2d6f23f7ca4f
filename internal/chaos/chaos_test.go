package chaos

import (
	"context"
	"os"
	"repro/internal/catalog"
	"strconv"
	"testing"

	"repro/internal/storage"
	"repro/internal/tape"
)

var ctx = context.Background()

// seedCount returns how many seeds each property sweeps: 3 by default,
// more when CHAOS_SEEDS is set (make chaos sets 8).
func seedCount() int {
	if v := os.Getenv("CHAOS_SEEDS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 3
}

// invariant asserts the chaos property on a completed report.
func invariant(t *testing.T, rep *Report) {
	t.Helper()
	if rep.Holds() {
		return
	}
	if len(rep.Damaged) == 0 {
		t.Fatalf("restored tree differs at %v with an empty damage report", rep.DiffPaths)
	}
	if !rep.Explained {
		t.Fatalf("damage report does not explain the differences: damaged=%v diffs=%v",
			rep.Damaged, rep.DiffPaths)
	}
}

// TestChaosLogicalDamageReport: latent sector errors under file data,
// no redundancy beneath — the logical dump must hole-map them and the
// damage report must name exactly the differing inodes.
func TestChaosLogicalDamageReport(t *testing.T) {
	for seed := int64(1); seed <= int64(seedCount()); seed++ {
		rep, err := Run(ctx, Damage.For(catalog.Logical, seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		invariant(t, rep)
		if rep.Identical && seed == 1 {
			t.Logf("seed %d: all planted faults fell on holes or duplicate picks", seed)
		}
	}
}

// TestChaosRaidAbsorbsDiskFaults: the same pipeline on a RAID-4 volume
// with a flaky member — transient faults retried, latent sector errors
// reconstructed from parity. Both engines must return a byte-identical
// tree with an empty damage report.
func TestChaosRaidAbsorbsDiskFaults(t *testing.T) {
	for _, engine := range []catalog.Engine{catalog.Logical, catalog.Image} {
		recovered := 0
		for seed := int64(1); seed <= int64(seedCount()); seed++ {
			rep, err := Run(ctx, RaidMember.For(engine, seed))
			if err != nil {
				t.Fatalf("%s seed %d: %v", engine, seed, err)
			}
			if !rep.Identical {
				t.Fatalf("%s seed %d: raid failed to absorb disk faults: diffs=%v damaged=%v",
					engine, seed, rep.DiffPaths, rep.Damaged)
			}
			recovered += rep.RaidRetries + rep.Reconstructs
		}
		if recovered == 0 {
			t.Errorf("%s: fault profile injected nothing across all seeds", engine)
		}
	}
}

// TestChaosOfflineResume: the drive drops offline mid-dump; the run
// must resume from the checkpoint on a replacement drive and the
// concatenated streams must restore correctly — for both engines.
func TestChaosOfflineResume(t *testing.T) {
	for _, engine := range []catalog.Engine{catalog.Logical, catalog.Image} {
		for seed := int64(1); seed <= int64(seedCount()); seed++ {
			rep, err := Run(ctx, Offline.For(engine, seed))
			if err != nil {
				t.Fatalf("%s seed %d: %v", engine, seed, err)
			}
			invariant(t, rep)
			if rep.Resumes == 0 {
				t.Errorf("%s seed %d: offline fault never forced a resume", engine, seed)
			}
		}
	}
}

// TestChaosOfflineEveryRecord tears the first stream at every record
// boundary it has — inside the maps and directories (or the image
// header) where nothing is durable yet, mid-file, and on the final
// record — and requires the resumed set to restore byte-identical each
// time: salvage holds at every prefix of the stream, not only past the
// first checkpoint.
func TestChaosOfflineEveryRecord(t *testing.T) {
	for _, engine := range []catalog.Engine{catalog.Logical, catalog.Image} {
		k := 1
		for ; ; k++ {
			rep, err := Run(ctx, Scenario{
				Dataset: Dataset{Seed: 1, Engine: engine, Files: 30},
				Tape:    tape.FaultConfig{OfflineAfterRecords: k},
			})
			if err != nil {
				t.Fatalf("%s offline after %d records: %v", engine, k, err)
			}
			if !rep.Identical {
				t.Fatalf("%s offline after %d records: diffs=%v", engine, k, rep.DiffPaths)
			}
			if rep.Resumes == 0 {
				break // k is past the stream's last record: the fault never fired
			}
		}
		if k < 4 {
			t.Errorf("%s: stream ended after %d records; the sweep proved nothing", engine, k-1)
		}
	}
}

// TestChaosKitchenSink: everything at once — flaky raid member, flat
// tape media errors with occasional cartridge loss, and an offline
// event — across both engines.
func TestChaosKitchenSink(t *testing.T) {
	for _, engine := range []catalog.Engine{catalog.Logical, catalog.Image} {
		for seed := int64(1); seed <= int64(seedCount()); seed++ {
			rep, err := Run(ctx, Scenario{
				Dataset: Dataset{Seed: seed, Engine: engine, Files: 30},
				Raid:    true,
				Profile: storage.FaultProfile{
					ReadFault: 0.01, Transient: 0.5, HealAfter: 1,
				},
				Tape: tape.FaultConfig{
					WriteFault: 0.02, Transient: 0.8, OfflineAfterRecords: 25,
				},
				Cartridges: 4,
			})
			if err != nil {
				t.Fatalf("%s seed %d: %v", engine, seed, err)
			}
			if !rep.Identical {
				t.Fatalf("%s seed %d: diffs=%v damaged=%v", engine, seed, rep.DiffPaths, rep.Damaged)
			}
		}
	}
}
