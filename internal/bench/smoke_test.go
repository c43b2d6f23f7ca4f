package bench

import (
	"context"
	"testing"
)

// tableScenario marks a test that regenerates an EXPERIMENTS.md table.
// These are minutes of single-threaded simulator work under the race
// detector, on engines whose own packages' tests already run raced, so
// `make race` (go test -race -short) skips them; tier-1 runs them all.
func tableScenario(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("table-regeneration scenario: skipped under -short")
	}
}

func TestSmokeBasic(t *testing.T) {
	tableScenario(t)
	cfg := DefaultConfig()
	cfg.DataMB = 16
	cfg.AgeRounds = 3
	res, err := RunBasic(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range res.Ops() {
		t.Logf("%-18s elapsed=%v MBps=%.2f cpu=%.0f%%", op.Name, op.Elapsed, op.MBps(), 100*op.CPUUtil)
		for _, s := range op.Stages {
			t.Logf("    %-28s %v cpu=%.0f%% disk=%.2f tape=%.2f", s.Name, s.Elapsed(), 100*s.CPUUtil(), s.DiskMBps(), s.TapeMBps())
		}
	}
}
