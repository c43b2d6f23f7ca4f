package bench

import (
	"context"
	"testing"
)

// TestChunkWeek runs the dedup-week experiment at reduced scale and
// asserts the two acceptance criteria: a week of fulls over a
// mostly-unchanged volume stores >=3x fewer unique bytes than logical
// bytes, and in reverse mode restore-of-latest stays within 10% of
// the non-dedup streaming restore.
func TestChunkWeek(t *testing.T) {
	tableScenario(t)
	cfg := DefaultConfig()
	cfg.DataMB = 8
	for _, rev := range []bool{false, true} {
		rep, err := RunChunkWeek(context.Background(), cfg, rev)
		if err != nil {
			t.Fatalf("reverse=%v: %v", rev, err)
		}
		t.Logf("reverse=%v ratio=%.2f latest=%.2fs oldest=%.2fs base=%.2fs",
			rev, rep.DedupRatio, rep.RestoreLatestSec, rep.RestoreOldestSec, rep.BaselineRestoreSec)
		if rep.DedupRatio < 3 {
			t.Errorf("reverse=%v dedup ratio %.2f < 3", rev, rep.DedupRatio)
		}
		if rev && rep.LatestVsBaseline > 1.10 {
			t.Errorf("reverse restore-of-latest %.2fx the streaming baseline (want <=1.10x)", rep.LatestVsBaseline)
		}
		if rev && rep.RestoreOldestSec < rep.RestoreLatestSec {
			t.Errorf("reverse mode should shift the restore cost to the oldest set")
		}
	}
}
