package raid

import (
	"context"
	"testing"

	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/vdev"
)

// syncRuns is the read pattern the timing pin replays: a sequential
// pair, a short skip forward, then a seek back.
var syncRuns = [][2]int{{0, 64}, {64, 64}, {160, 32}, {16, 48}}

// readRunsSync reads runs from dev through storage.ReadRun on a fresh
// process of env and returns the virtual time the last one completed.
func readRunsSync(t *testing.T, env *sim.Env, dev storage.Device, runs [][2]int) sim.Time {
	t.Helper()
	var end sim.Time
	env.Spawn("reader", func(p *sim.Proc) {
		ctx := sim.WithProc(context.Background(), p)
		for _, r := range runs {
			if err := storage.ReadRun(ctx, dev, r[0], r[1], make([]byte, r[1]*storage.BlockSize)); err != nil {
				t.Error(err)
				return
			}
		}
		end = p.Now()
	})
	env.Run()
	return end
}

func diskSeeks(disks ...Disk) (n int64) {
	for _, d := range disks {
		_, _, seeks := d.(*vdev.Disk).Stats()
		n += seeks
	}
	return n
}

// TestSyncRunReadIsAsyncPlusWait pins the synchronous run read's timing,
// the device's ReadRunAsync plus a wait on its completion, over a single
// disk and a single RAID group: the final virtual clock and the seeks
// the disks charged, with values recorded when each device had a
// synchronous body of its own. A run spanning two groups of a volume
// overlaps them and completes when the later group does.
func TestSyncRunReadIsAsyncPlusWait(t *testing.T) {
	t.Run("disk", func(t *testing.T) {
		env := sim.NewEnv()
		d := vdev.New(env, "d", 256, vdev.DefaultParams())
		end := readRunsSync(t, env, d, syncRuns)
		if seeks := diskSeeks(d); end != 138_050_000 || seeks != 3 {
			t.Fatalf("disk: done at %d with %d seeks, want 138050000 with 3", end, seeks)
		}
	})
	t.Run("group", func(t *testing.T) {
		env := sim.NewEnv()
		v, err := Build(env, "v", Config{Groups: 1, DataDisksPerGroup: 4, BlocksPerDisk: 64, DiskParams: vdev.DefaultParams()})
		if err != nil {
			t.Fatal(err)
		}
		g := v.Groups()[0]
		end := readRunsSync(t, env, g, syncRuns)
		if seeks := diskSeeks(g.data...); end != 52_637_500 || seeks != 8 {
			t.Fatalf("group: done at %d with %d seeks, want 52637500 with 8", end, seeks)
		}
	})
	t.Run("volume spanning two groups", func(t *testing.T) {
		cfg := Config{Groups: 2, DataDisksPerGroup: 2, BlocksPerDisk: 64, DiskParams: vdev.DefaultParams()}
		// Each group's share of the run, alone on a fresh volume.
		alone := func(bno, n int) sim.Time {
			env := sim.NewEnv()
			v, err := Build(env, "v", cfg)
			if err != nil {
				t.Fatal(err)
			}
			return readRunsSync(t, env, v, [][2]int{{bno, n}})
		}
		first, second := alone(96, 32), alone(128, 48)
		env := sim.NewEnv()
		v, err := Build(env, "v", cfg)
		if err != nil {
			t.Fatal(err)
		}
		end := readRunsSync(t, env, v, [][2]int{{96, 80}})
		if want := max(first, second); end != want {
			t.Fatalf("run over two groups done at %d, want %d: the later of the groups' %d and %d", end, want, first, second)
		}
	})
}
