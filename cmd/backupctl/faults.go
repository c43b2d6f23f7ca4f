package main

import (
	"context"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/chaos"
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

	failures := 0
	for _, sc := range chaos.Suite {
		if *scenario != "all" && *scenario != sc.Name {
			continue
		}
		for _, eng := range names {
			if sc.Only != 0 && engines[eng] != sc.Only {
				continue
			}
			for s := *seed; s < *seed+int64(*runs); s++ {
				rep, err := chaos.Run(ctx, sc.For(engines[eng], s))
				if err != nil {
					fmt.Printf("FAIL %-8s %-8s seed=%-3d %v\n", sc.Name, eng, s, err)
					failures++
					continue
				}
				status, verdict := "ok  ", "identical"
				switch {
				case rep.Identical:
				case rep.Holds():
					verdict = fmt.Sprintf("damage exactly reported (%d blocks)", len(rep.Damaged))
				default:
					status, verdict = "FAIL", fmt.Sprintf("UNEXPLAINED diffs %v", rep.DiffPaths)
					failures++
				}
				fmt.Printf("%s %-8s %-8s seed=%-3d resumes=%d tape(retry=%d swap=%d) raid(retry=%d recon=%d): %s\n",
					status, sc.Name, eng, s, rep.Resumes, rep.TapeRetries, rep.TapeSwaps,
					rep.RaidRetries, rep.Reconstructs, verdict)
			}
		}
	}
	if failures > 0 {
		return fmt.Errorf("faults: %d scenario(s) failed", failures)
	}
	return nil
}
