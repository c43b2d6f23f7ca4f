package main

import (
	"context"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/chaos"
	"repro/internal/storage"
	"repro/internal/tape"
)

// faultsCommand runs seeded fault-injection scenarios against
// in-memory volumes and tape libraries — the operator-facing face of
// the chaos property: every cycle must either restore byte-identically
// or name exactly the damaged inodes.
//
//	backupctl --faults                          # both engines, scenario suite
//	backupctl --faults -seed 7 -runs 5          # sweep seeds 7..11
//	backupctl --faults -engine physical -scenario offline
func faultsCommand(ctx context.Context, args []string) error {
	set := newFlagSet("faults")
	seed := set.Int64("seed", 1, "first scenario seed")
	runs := set.Int("runs", 3, "seeds per scenario")
	engine := set.String("engine", "both", "logical, physical, or both")
	scenario := set.String("scenario", "all", "damage, raid, offline, or all")
	if err := set.Parse(args); err != nil {
		return err
	}
	// The report prints the words the operator types: this command has
	// always called the image engine "physical".
	engines := map[string]catalog.Engine{"logical": catalog.Logical, "physical": catalog.Image}
	names := []string{"logical", "physical"}
	if *engine != "both" {
		if _, ok := engines[*engine]; !ok {
			return fmt.Errorf("faults: unknown engine %q", *engine)
		}
		names = []string{*engine}
	}

	type namedScenario struct {
		name string
		make func(eng catalog.Engine, s int64) chaos.Scenario
		only catalog.Engine // 0 = both engines
	}
	scenarios := []namedScenario{
		{name: "damage", only: catalog.Logical,
			make: func(eng catalog.Engine, s int64) chaos.Scenario {
				return chaos.Scenario{Seed: s, Engine: eng, DataBlockFaults: 3,
					Tape: tape.FaultConfig{WriteFault: 0.02, Transient: 1.0}}
			}},
		{name: "raid",
			make: func(eng catalog.Engine, s int64) chaos.Scenario {
				return chaos.Scenario{Seed: s, Engine: eng, Raid: true,
					Profile: storage.FaultProfile{ReadFault: 0.15, RunFault: 0.5, Transient: 0.5, HealAfter: 2},
					Tape:    tape.FaultConfig{WriteFault: 0.01, Transient: 1.0}}
			}},
		{name: "offline",
			make: func(eng catalog.Engine, s int64) chaos.Scenario {
				off := 12
				if eng == catalog.Image {
					off = 4
				}
				return chaos.Scenario{Seed: s, Engine: eng, Files: 30,
					Tape: tape.FaultConfig{OfflineAfterRecords: off}}
			}},
	}

	failures := 0
	for _, sc := range scenarios {
		if *scenario != "all" && *scenario != sc.name {
			continue
		}
		for _, eng := range names {
			if sc.only != 0 && engines[eng] != sc.only {
				continue
			}
			for s := *seed; s < *seed+int64(*runs); s++ {
				rep, err := chaos.Run(ctx, sc.make(engines[eng], s))
				if err != nil {
					fmt.Printf("FAIL %-8s %-8s seed=%-3d %v\n", sc.name, eng, s, err)
					failures++
					continue
				}
				verdict := "identical"
				ok := rep.Identical
				if !rep.Identical {
					if len(rep.Damaged) > 0 && rep.Explained {
						verdict = fmt.Sprintf("damage exactly reported (%d blocks)", len(rep.Damaged))
						ok = true
					} else {
						verdict = fmt.Sprintf("UNEXPLAINED diffs %v", rep.DiffPaths)
					}
				}
				status := "ok  "
				if !ok {
					status = "FAIL"
					failures++
				}
				fmt.Printf("%s %-8s %-8s seed=%-3d resumes=%d tape(retry=%d swap=%d) raid(retry=%d recon=%d): %s\n",
					status, sc.name, eng, s, rep.Resumes, rep.TapeRetries, rep.TapeSwaps,
					rep.RaidRetries, rep.Reconstructs, verdict)
			}
		}
	}
	if failures > 0 {
		return fmt.Errorf("faults: %d scenario(s) failed", failures)
	}
	return nil
}
