package bench

import (
	"context"
	"testing"
)

func TestSmokeAblations(t *testing.T) {
	tableScenario(t)
	cfg := DefaultConfig()
	cfg.DataMB = 16
	cfg.AgeRounds = 3
	for name, run := range map[string]func(context.Context, Config) (*AblationResult, error){
		"nvram": RunNVRAMAblation, "readahead": RunReadAheadAblation, "copy": RunCopyAblation,
	} {
		res, err := run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Logf("%s: base %.2f MB/s (cpu %.0f%%) vs variant %.2f MB/s (cpu %.0f%%), speedup %.2fx",
			res.Name, res.Baseline.MBps(), 100*res.Baseline.CPUUtil,
			res.Variant.MBps(), 100*res.Variant.CPUUtil, res.Speedup())
	}
}

func TestSmokeIncremental(t *testing.T) {
	tableScenario(t)
	cfg := DefaultConfig()
	cfg.DataMB = 16
	cfg.AgeRounds = 3
	res, err := RunIncremental(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("logical: full %d bytes in %v, incr %d bytes in %v", res.FullLogicalBytes, res.FullLogical.Elapsed, res.IncrLogicalBytes, res.IncrLogical.Elapsed)
	t.Logf("physical: full %d blocks in %v, incr %d blocks in %v", res.FullPhysicalBlocks, res.FullPhysical.Elapsed, res.IncrPhysicalBlocks, res.IncrPhysical.Elapsed)
	if res.IncrLogicalBytes >= res.FullLogicalBytes/2 {
		t.Error("logical incremental not small")
	}
	if res.IncrPhysicalBlocks >= res.FullPhysicalBlocks/2 {
		t.Error("physical incremental not small")
	}
}

func TestSmokeConcurrentVolumes(t *testing.T) {
	tableScenario(t)
	cfg := DefaultConfig()
	cfg.DataMB = 16
	cfg.AgeRounds = 2
	res, err := RunConcurrentVolumes(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("home: iso %v vs con %v; rlse: iso %v vs con %v",
		res.HomeIsolated.Elapsed, res.HomeConcurrent.Elapsed,
		res.RlseIsolated.Elapsed, res.RlseConcurrent.Elapsed)
	slow := float64(res.HomeConcurrent.Elapsed) / float64(res.HomeIsolated.Elapsed)
	if slow > 1.25 {
		t.Errorf("concurrent home dump %.2fx slower than isolated", slow)
	}
}
