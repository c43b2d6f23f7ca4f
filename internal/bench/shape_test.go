package bench

import (
	"context"
	"strings"
	"testing"
	"time"
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

// Shape tests: the paper's qualitative conclusions, asserted with
// generous margins so they hold across seeds. These are the
// reproduction's contract — if a model change breaks one of these, the
// repo no longer reproduces the paper.

func shapeCfg() Config {
	cfg := DefaultConfig()
	cfg.DataMB = 24
	cfg.AgeRounds = 4
	return cfg
}

// TestTable1BlockStates is the semantic check behind Table 1: each of
// the four block states, built from real snapshots, lands in or out of
// the incremental set as the paper's truth table says.
func TestTable1BlockStates(t *testing.T) {
	if out := Table1(); strings.Count(out, "[OK]") != 4 {
		t.Fatalf("Table 1 semantics violated:\n%s", out)
	}
}

func TestShapeBasic(t *testing.T) {
	tableScenario(t)
	res, err := RunBasic(context.Background(), shapeCfg())
	if err != nil {
		t.Fatal(err)
	}
	lb, lr := res.LogicalBackup, res.LogicalRestore
	pb, pr := res.PhysicalBackup, res.PhysicalRestore

	// §5.3: "physical backup and restore ... can achieve much higher
	// throughput than logical backup and restore".
	if pb.MBps() <= lb.MBps() {
		t.Errorf("physical backup (%.2f) not faster than logical (%.2f)", pb.MBps(), lb.MBps())
	}
	if pr.MBps() <= lr.MBps() {
		t.Errorf("physical restore (%.2f) not faster than logical (%.2f)", pr.MBps(), lr.MBps())
	}
	// Table 2 note: "the significant difference in the restore
	// performance" — the restore gap exceeds the backup gap.
	backupGap := pb.MBps() / lb.MBps()
	restoreGap := pr.MBps() / lr.MBps()
	if restoreGap <= backupGap*0.9 {
		t.Errorf("restore gap (%.2fx) not larger than backup gap (%.2fx)", restoreGap, backupGap)
	}
	// Table 3: "logical dump consumes 5 times the CPU resources of its
	// physical counterpart" (we accept >= 3x), and "logical restore
	// consumes more than 3 times the CPU that physical restore does"
	// (we accept >= 2x). Compare per-byte CPU, not raw utilization.
	perByte := func(o OpResult) float64 {
		return o.CPUUtil / o.MBps()
	}
	if r := perByte(lb) / perByte(pb); r < 3 {
		t.Errorf("logical dump CPU/byte only %.1fx physical (want >= 3x)", r)
	}
	if r := perByte(lr) / perByte(pr); r < 2 {
		t.Errorf("logical restore CPU/byte only %.1fx physical (want >= 2x)", r)
	}
	// Both physical directions run near the tape streaming rate.
	if pb.MBps() < 6.5 || pr.MBps() < 6.5 {
		t.Errorf("physical path far from tape speed: dump %.2f, restore %.2f", pb.MBps(), pr.MBps())
	}
}

func TestShapeScaling(t *testing.T) {
	tableScenario(t)
	ctx := context.Background()
	pts, err := RunScaling(ctx, shapeCfg(), []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	one, two, four := pts[0], pts[1], pts[2]

	// §5.3: "The performance of physical dump/restore scales very
	// well" — at least 2.5x from 1 to 4 drives, and at least 1.5x per
	// doubling (paper: 1.9x / 1.9x).
	if r := four.PhysGBph / one.PhysGBph; r < 2.5 {
		t.Errorf("physical backup scaled only %.2fx over 4 drives", r)
	}
	if r12, r24 := two.PhysGBph/one.PhysGBph, four.PhysGBph/two.PhysGBph; r12 < 1.5 || r24 < 1.5 {
		t.Errorf("physical backup scaled %.2fx then %.2fx per doubling, want >= 1.5x each", r12, r24)
	}
	// "Logical dump/restore scales much more poorly": sub-linear, and
	// worse than physical.
	lr := four.LogicalGBph / one.LogicalGBph
	pr := four.PhysGBph / one.PhysGBph
	if lr >= pr {
		t.Errorf("logical scaled %.2fx >= physical %.2fx", lr, pr)
	}
	if lr > 3.6 {
		t.Errorf("logical scaling %.2fx suspiciously linear", lr)
	}
	// Per-tape efficiency: physical holds up, logical degrades (paper:
	// 27.6 vs 30.1 for physical, 17.4 vs 21 for logical — 0.92 of the
	// one-drive rate kept against 0.83, 1.1x). Physical keeps at least
	// 0.85 of its per-tape rate, logical at least 0.60, and physical at
	// least 1.1x the share logical keeps (here 0.87 against 0.75; 0.91
	// against 0.70 on Table 7's dataset). The floors are what spreading
	// a consistency point's files over the volume's three RAID groups
	// bought: with the dataset wherever one allocation cursor had left
	// it, four streams shared a group's ten spindles and physical kept
	// 0.72, logical 0.61. Both dumps read the same aged volume, before
	// the logical restore wipes it: when the physical dump read the
	// volume the restore had laid out, a faster restore alone took
	// physical from 0.85 to 0.80.
	physKept, logicalKept := four.PhysPer/one.PhysPer, four.LogicalPer/one.LogicalPer
	t.Logf("per-tape rate kept at 4 drives: physical %.3f (%.1f -> %.1f GB/h), logical %.3f (%.1f -> %.1f)",
		physKept, one.PhysPer, four.PhysPer, logicalKept, one.LogicalPer, four.LogicalPer)
	if physKept < 0.85 || logicalKept < 0.60 || physKept < 1.1*logicalKept {
		t.Errorf("per-tape rate kept at 4 drives: physical %.2f (%.1f -> %.1f), logical %.2f (%.1f -> %.1f); want physical >= 0.85, logical >= 0.60 and physical >= 1.1x logical",
			physKept, one.PhysPer, four.PhysPer, logicalKept, one.LogicalPer, four.LogicalPer)
	}
	if four.LogicalPer >= one.LogicalPer {
		t.Errorf("logical per-tape rate did not degrade: %.1f -> %.1f", one.LogicalPer, four.LogicalPer)
	}
	// At 4 drives physical still beats logical by a wide margin
	// (paper: 110 vs 69.6 GB/h).
	if four.PhysGBph < four.LogicalGBph*1.2 {
		t.Errorf("4-drive physical (%.1f) not clearly ahead of logical (%.1f)",
			four.PhysGBph, four.LogicalGBph)
	}
	// CPU climbs with drives for logical (paper: 25% -> 90%).
	if four.LogicalCPU <= one.LogicalCPU {
		t.Errorf("logical CPU did not climb with drives: %.2f -> %.2f", one.LogicalCPU, four.LogicalCPU)
	}

	// The logical curve rises with every drive added, as the paper's
	// does (13.9 -> 19.8 MB/s): the engine's read-ahead issues all the
	// streams' reads in disk order, so added streams do not turn into
	// added seeks.
	if !(one.LogicalGBph <= two.LogicalGBph && two.LogicalGBph <= four.LogicalGBph) {
		t.Errorf("logical GB/h not non-decreasing over 1/2/4 drives: %.1f / %.1f / %.1f",
			one.LogicalGBph, two.LogicalGBph, four.LogicalGBph)
	}

	// Restore (paper Tables 2/4/5: logical 6.5 -> 11.0 -> 13.1 MB/s,
	// physical 8.3 -> 17.2 -> 27.9): concurrent logical restore streams
	// overlap one stream's CPU with another's NVRAM commit, so the
	// curve does not fall as drives are added, and it stays under
	// physical's at every point.
	if !(one.LogicalRestoreMBps <= two.LogicalRestoreMBps && two.LogicalRestoreMBps <= four.LogicalRestoreMBps) {
		t.Errorf("logical restore MB/s not non-decreasing over 1/2/4 drives: %.2f / %.2f / %.2f",
			one.LogicalRestoreMBps, two.LogicalRestoreMBps, four.LogicalRestoreMBps)
	}
	for _, p := range pts {
		if p.LogicalRestoreMBps >= p.PhysRestoreMBps {
			t.Errorf("%d drives: logical restore (%.2f MB/s) not below physical (%.2f)", p.Drives, p.LogicalRestoreMBps, p.PhysRestoreMBps)
		}
	}

	// Table 14: at 4 drives the reads are issued from one place, so
	// readers per shard only stage chunks out of the cache: one reader
	// and the shipped three land within 10 % of each other. Physical,
	// sequential by construction, does not care either.
	fourWith := func(readers int) ScalingPoint {
		cfg := shapeCfg()
		cfg.Readers = readers
		p, err := RunScaling(ctx, cfg, []int{4})
		if err != nil {
			t.Fatalf("readers=%d: %v", readers, err)
		}
		return p[0]
	}
	r1, r6 := fourWith(1), fourWith(6) // four is the shipped readers=3
	if r := four.LogicalGBph / r1.LogicalGBph; r < 0.9 || r > 1.1 {
		t.Errorf("logical GB/h at 4 drives: readers 3 (%.1f) is %.2fx readers 1 (%.1f), want within 10%%",
			four.LogicalGBph, r, r1.LogicalGBph)
	}
	for _, p := range []ScalingPoint{r1, r6} {
		if r := p.PhysGBph / four.PhysGBph; r < 0.9 || r > 1.1 {
			t.Errorf("physical GB/h moved %.2fx off the readers=3 rate, want within 10%%", r)
		}
	}
}

// TestSmokeConcurrentVolumes is Table 6's claim: two volumes dumped
// concurrently to separate drives do not slow each other down.
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

func TestShapeAblationsDirections(t *testing.T) {
	tableScenario(t)
	ctx := context.Background()
	cfg := shapeCfg()
	cfg.DataMB = 16
	cfg.AgeRounds = 3

	nv, err := RunNVRAMAblation(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if nv.Speedup() < 1.1 {
		t.Errorf("NVRAM bypass speedup %.2fx, want noticeable (>= 1.1x)", nv.Speedup())
	}
	ra, err := RunReadAheadAblation(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Speedup() < 1.3 {
		t.Errorf("read-ahead speedup %.2fx, want >= 1.3x", ra.Speedup())
	}
	cp, err := RunCopyAblation(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Copies cost CPU even when tape-limited throughput hides them.
	if cp.Baseline.CPUUtil <= cp.Variant.CPUUtil {
		t.Errorf("user-level copies did not raise CPU: %.2f vs %.2f",
			cp.Baseline.CPUUtil, cp.Variant.CPUUtil)
	}
}

func TestShapeIncrementalSizes(t *testing.T) {
	tableScenario(t)
	cfg := shapeCfg()
	cfg.DataMB = 16
	cfg.AgeRounds = 3
	res, err := RunIncremental(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// ~5% churn: both incrementals land well under a third of full.
	if res.IncrLogicalBytes*3 >= res.FullLogicalBytes {
		t.Errorf("logical incremental %d vs full %d", res.IncrLogicalBytes, res.FullLogicalBytes)
	}
	if res.IncrPhysicalBlocks*3 >= res.FullPhysicalBlocks {
		t.Errorf("physical incremental %d vs full %d blocks", res.IncrPhysicalBlocks, res.FullPhysicalBlocks)
	}
	// The physical incremental is the cheaper of the two per byte moved:
	// no Phase I mapping sweep. Measured as work — CPU per byte dumped,
	// the paper's Table 3 measure — not as bytes per elapsed second: the
	// sweep's reads overlap now and mostly hit the buffer cache, so it
	// no longer shows as latency on an incremental this small, but the
	// level-1 dump still walks every inode and reads every directory to
	// find the few files that changed, and that cost is spread over
	// fewer bytes than the full dump's.
	cpuPerByte := func(o OpResult, bytes int64) float64 {
		var busy time.Duration
		for _, s := range o.Stages {
			busy += s.End.CPUBusy - s.Begin.CPUBusy
		}
		return float64(busy) / float64(bytes)
	}
	incrLogical := cpuPerByte(res.IncrLogical, res.IncrLogicalBytes)
	fullLogical := cpuPerByte(res.FullLogical, res.FullLogicalBytes)
	incrPhysical := cpuPerByte(res.IncrPhysical, int64(res.IncrPhysicalBlocks)*4096)
	if incrLogical < 3*incrPhysical {
		t.Errorf("incremental dump CPU %.1f ns/byte not well above incremental image's %.1f", incrLogical, incrPhysical)
	}
	if incrLogical < 1.3*fullLogical {
		t.Errorf("incremental dump CPU %.1f ns/byte not above the full dump's %.1f: where did the mapping sweep go?", incrLogical, fullLogical)
	}
}

func TestExperimentsAreDeterministic(t *testing.T) {
	tableScenario(t)
	// The whole stack — workload, filesystem, simulator, devices — is
	// seeded and deterministic: two runs of the same experiment must
	// agree to the nanosecond of virtual time.
	cfg := shapeCfg()
	cfg.DataMB = 16
	cfg.AgeRounds = 2
	cfg.Verify = false
	a, err := RunBasic(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBasic(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	opsA, opsB := a.Ops(), b.Ops()
	for i := range opsA {
		x, y := opsA[i], opsB[i]
		if x.Elapsed != y.Elapsed || x.Bytes != y.Bytes {
			t.Errorf("op %d: run A (%v, %d bytes) != run B (%v, %d bytes)",
				i, x.Elapsed, x.Bytes, y.Elapsed, y.Bytes)
		}
		// Every stage boundary sampled the same clock, CPU-busy, disk and
		// tape counters in both runs.
		if len(x.Stages) != len(y.Stages) {
			t.Fatalf("%s: %d stages in run A, %d in run B", x.Name, len(x.Stages), len(y.Stages))
		}
		for j := range x.Stages {
			if *x.Stages[j] != *y.Stages[j] {
				t.Errorf("%s stage %d: run A %+v != run B %+v", x.Name, j, *x.Stages[j], *y.Stages[j])
			}
		}
	}
}
