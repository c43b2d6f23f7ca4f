package logical

import (
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/nvram"
	"repro/internal/storage"
	"repro/internal/wafl"
)

// TestRestoreHostCostIndependentOfVolumeSize restores one stream onto a
// volume of 16 384 blocks and onto one of 16 times that, and wants the
// host time per MiB restored within 1.5× between them: nothing a
// restore does per block may cost in proportion to the volume. When a
// write's space check scanned the whole block map, the larger volume
// was about 7× slower. Each size keeps the fastest of three runs,
// interleaved with the other size's, so a busy moment on the host
// does not decide it.
func TestRestoreHostCostIndependentOfVolumeSize(t *testing.T) {
	if testing.Short() || bufpool.RaceEnabled {
		t.Skip("a wall-clock ratio; skipped in short mode and under the race detector")
	}
	view := pinTree(t, newFS(t, 16384))
	drive := newTape(t, 0, 1)
	dumpToTape(t, view, drive, 0, nil)

	type volume struct {
		dev  *storage.MemDevice
		nv   *nvram.Log
		best time.Duration
	}
	vols := []*volume{
		{dev: storage.NewMemDevice(16384), nv: nvram.New(nil, nvram.DefaultParams())},
		{dev: storage.NewMemDevice(16 * 16384), nv: nvram.New(nil, nvram.DefaultParams())},
	}
	var mib float64
	for run := -1; run < 3; run++ { // run -1 backs each device's blocks
		for _, v := range vols {
			v.nv.Reset()
			fs, err := wafl.Mkfs(ctx, v.dev, v.nv, wafl.Options{})
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			stats := restoreFromTape(t, fs, drive)
			took := time.Since(start)
			mib = float64(stats.BytesRead) / (1 << 20)
			if run >= 0 && (v.best == 0 || took < v.best) {
				v.best = took
			}
		}
	}
	small, large := vols[0].best.Seconds()*1e9/mib, vols[1].best.Seconds()*1e9/mib
	t.Logf("%.1f MiB restored: %.0f ns/MiB onto %d blocks, %.0f ns/MiB onto %d",
		mib, small, vols[0].dev.NumBlocks(), large, vols[1].dev.NumBlocks())
	if large > 1.5*small {
		t.Errorf("restoring onto a volume 16× larger costs %.1f× the host time per MiB, want at most 1.5×", large/small)
	}
}
