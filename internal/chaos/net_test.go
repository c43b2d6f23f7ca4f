package chaos

import (
	"repro/internal/catalog"
	"testing"

	"repro/internal/transport"
)

func runNetScenario(t *testing.T, s NetScenario) *NetReport {
	t.Helper()
	rep, err := RunNet(ctx, s)
	if err != nil {
		t.Fatalf("%s seed %d: %v", s.Engine, s.Seed, err)
	}
	if !rep.Identical {
		t.Fatalf("%s seed %d: restored tree differs: %v", s.Engine, s.Seed, rep.DiffPaths)
	}
	return rep
}

// TestChaosNetPartitionedDumps is the acceptance scenario for the
// remote session layer: a full logical dump and a full image dump,
// each through a link that is hard-partitioned three times and has a
// frame corrupted in flight. Every fault is absorbed inside the
// session by reconnect-and-replay — the engines never even notice, so
// no checkpoint resume is needed and the restored volume must be
// byte-identical.
func TestChaosNetPartitionedDumps(t *testing.T) {
	cases := []struct {
		engine   catalog.Engine
		cuts     []int // frame indexes; logical streams ~45 records, image ~8
		corrupt  []int
		capacity int64
	}{
		{catalog.Logical, []int{15, 40, 70}, []int{23}, 128 << 10},
		{catalog.Image, []int{6, 12, 20}, []int{9}, 256 << 10},
	}
	for _, c := range cases {
		rep := runNetScenario(t, NetScenario{
			Dataset: Dataset{Seed: 11, Engine: c.engine, Files: 30},
			Net: transport.FaultConfig{
				CutAfterFrames:  c.cuts,
				CorruptAtFrames: c.corrupt,
			},
			TapeCapacity: c.capacity,
			Cartridges:   10,
		})
		if rep.Partitions < len(c.cuts) {
			t.Errorf("%s: %d partitions injected, want at least %d",
				c.engine, rep.Partitions, len(c.cuts))
		}
		if rep.Net.Corrupted < 1 {
			t.Errorf("%s: no frame was corrupted", c.engine)
		}
		if rep.Reconnects < len(c.cuts) {
			t.Errorf("%s: %d reconnects, want at least %d (one per cut)",
				c.engine, rep.Reconnects, len(c.cuts))
		}
		if rep.Replayed == 0 {
			t.Errorf("%s: cuts and corruption caused no record replay", c.engine)
		}
		if rep.Resumes != 0 {
			t.Errorf("%s: recoverable link faults forced %d engine resumes; the session should have absorbed them",
				c.engine, rep.Resumes)
		}
		if rep.Host.NextVols < 1 {
			t.Errorf("%s: tape capacity never forced a volume switch over the wire", c.engine)
		}
	}
}

// TestChaosNetDeadPeerResume black-holes the host's responses
// mid-dump: the client's frames still arrive but no ack ever returns.
// The session must declare the peer dead within its deadline and the
// engine must fall back to its checkpoint Resume on a fresh
// stream; the streams concatenate to a byte-identical restore. The
// one-way partition is detected at the next checkpoint Sync, which is
// exactly why checkpoints drain the window — a checkpoint the host
// never acknowledged must not be resumed from.
func TestChaosNetDeadPeerResume(t *testing.T) {
	cases := []struct {
		engine     catalog.Engine
		partitions []int // cumulative accepted records
	}{
		{catalog.Logical, []int{18}},
		{catalog.Image, []int{5}},
	}
	for _, c := range cases {
		rep := runNetScenario(t, NetScenario{
			Dataset:               Dataset{Seed: 12, Engine: c.engine, Files: 30},
			PartitionAfterRecords: c.partitions,
		})
		if rep.Partitions < len(c.partitions) {
			t.Errorf("%s: partition was never injected", c.engine)
		}
		if rep.Resumes < 1 {
			t.Errorf("%s: dead peer never forced a checkpoint resume", c.engine)
		}
	}
}

// TestChaosNetLossyLink sweeps seeds over a probabilistically hostile
// link — drops, duplicates, corruption, reordering — with no scheduled
// faults. The session's windowed replay must deliver exactly-once,
// in-order records regardless, for both engines.
func TestChaosNetLossyLink(t *testing.T) {
	for _, engine := range []catalog.Engine{catalog.Logical, catalog.Image} {
		injected := 0
		for seed := int64(1); seed <= int64(seedCount()); seed++ {
			rep := runNetScenario(t, NetScenario{
				Dataset: Dataset{Seed: seed, Engine: engine, Files: 24},
				Net: transport.FaultConfig{
					Drop: 0.10, Duplicate: 0.05, Corrupt: 0.05, Reorder: 0.10,
					MaxFaults: 60,
				},
			})
			injected += rep.Net.Dropped + rep.Net.Duplicated + rep.Net.Corrupted + rep.Net.Reordered
		}
		if injected == 0 {
			t.Errorf("%s: fault profile injected nothing across all seeds", engine)
		}
	}
}
