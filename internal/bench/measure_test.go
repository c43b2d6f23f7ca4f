package bench

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// smallFiler is an empty two-drive filer for exercising the measuring
// primitive itself.
func smallFiler(t *testing.T) (*core.Filer, *Meters) {
	t.Helper()
	f, err := buildFiler(context.Background(), Config{DataMB: 1}, "t", 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return f, metersFor(f)
}

// sleepOp is a body that spends d of virtual time in one stage.
func sleepOp(d time.Duration, bytes int64) opBody {
	return func(c context.Context, rec *Recorder) (int64, error) {
		rec.Begin("sleep")
		sim.ProcFrom(c).Sleep(d)
		return bytes, nil
	}
}

func TestMeasureWrapsErrorAndLeavesEnvQuiescent(t *testing.T) {
	ctx := context.Background()
	_, m := smallFiler(t)
	boom := errors.New("boom")
	_, err := measure(ctx, m, "failing op", func(c context.Context, rec *Recorder) (int64, error) {
		rec.Begin("half-open stage")
		return 7, boom
	})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "bench: failing op: ") {
		t.Fatalf("error %v: want boom wrapped with the operation's name", err)
	}
	// The failed operation left nothing behind: the next one on the
	// same environment runs and is measured from where the clock is.
	op, err := measure(ctx, m, "next op", sleepOp(time.Second, 42))
	if err != nil {
		t.Fatal(err)
	}
	if op.Name != "next op" || op.Elapsed != time.Second || op.Bytes != 42 || len(op.Stages) != 1 {
		t.Fatalf("following measure: %+v", op)
	}
}

func TestStartedOperationsOverlap(t *testing.T) {
	ctx := context.Background()
	f, m := smallFiler(t)
	long := start(ctx, m, "long", sleepOp(3*time.Second, 30))
	short := start(ctx, m, "short", sleepOp(time.Second, 10))
	f.Env.Run()
	a, err := long()
	if err != nil {
		t.Fatal(err)
	}
	b, err := short()
	if err != nil {
		t.Fatal(err)
	}
	if a.Bytes != 30 || b.Bytes != 10 {
		t.Errorf("bytes: long %d, short %d; want each its own (30, 10)", a.Bytes, b.Bytes)
	}
	if a.Elapsed != 3*time.Second || b.Elapsed != time.Second {
		t.Errorf("elapsed: long %v, short %v", a.Elapsed, b.Elapsed)
	}
	if begin, end := b.Stages[0].Begin.T, a.Stages[0].End.T; begin >= end {
		t.Errorf("second operation began at %v, after the first ended at %v: not concurrent", begin, end)
	}
	merged := mergeOps("both", []OpResult{a, b})
	if merged.Bytes != 40 || merged.Elapsed != 3*time.Second || len(merged.Stages) != 1 {
		t.Errorf("merged: %+v", merged)
	}
}

// TestConcurrentVolumesFailedDumpIsAnError: a dump that runs out of
// tape must fail the experiment, not print as a row of zeros.
func TestConcurrentVolumesFailedDumpIsAnError(t *testing.T) {
	cfg := Config{DataMB: 8, Seed: 1999, AgeRounds: 1}
	cfg.Tweak = func(fc *core.FilerConfig) {
		fc.CartridgesPerDrive = 1
		fc.TapeParams.Capacity = 1 << 20
	}
	res, err := RunConcurrentVolumes(context.Background(), cfg)
	if err == nil {
		t.Fatalf("dumping 8 MB onto one 1 MB cartridge succeeded:\n%s", FormatOpsTable("",
			[]OpResult{res.HomeIsolated, res.RlseIsolated, res.HomeConcurrent, res.RlseConcurrent}))
	}
	if !strings.Contains(err.Error(), "bench: home (isolated): ") {
		t.Errorf("error %q does not name the failed operation", err)
	}
}
