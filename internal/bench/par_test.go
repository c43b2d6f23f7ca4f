package bench

import (
	"context"
	"testing"
)

func TestSmokeParallel(t *testing.T) {
	tableScenario(t)
	cfg := DefaultConfig()
	cfg.DataMB = 32
	cfg.AgeRounds = 3
	for _, n := range []int{1, 2, 4} {
		res, err := RunParallel(context.Background(), cfg, n)
		if err != nil {
			t.Fatalf("drives=%d: %v", n, err)
		}
		t.Logf("drives=%d: LB=%.2f MB/s cpu=%.0f%% | LR=%.2f cpu=%.0f%% | PB=%.2f cpu=%.0f%% | PR=%.2f cpu=%.0f%%",
			n,
			res.LogicalBackup.MBps(), 100*res.LogicalBackup.CPUUtil,
			res.LogicalRestore.MBps(), 100*res.LogicalRestore.CPUUtil,
			res.PhysicalBackup.MBps(), 100*res.PhysicalBackup.CPUUtil,
			res.PhysicalRestore.MBps(), 100*res.PhysicalRestore.CPUUtil)
	}
}
