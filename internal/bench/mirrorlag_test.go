package bench

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// The tests below run Table 12's mirror at small scale (4 MB, one link
// rate) over the path RunMirrorLag measures: image engine dump, ndmp
// session over transport.Link, RestoreSet onto the standby.

const mirrorTestSeed = 1999

// newTestMirror builds a 4 MB filer, fills it and pairs it with a blank
// standby across a 4 MB/s link. It returns the live paths for churn.
func newTestMirror(t *testing.T, ctx context.Context) (*core.Filer, *mirror, []string) {
	t.Helper()
	cfg := Config{DataMB: 4, Seed: mirrorTestSeed}
	f, err := buildFiler(ctx, cfg, "prod", 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := workload.Generate(ctx, f.FS, workload.Spec{
		Seed: cfg.Seed, Files: 64, DirFanout: 10, MeanFileSize: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, newMirror(f, 4), paths
}

// syncMirror runs one sync on the simulation clock and returns the
// blocks it shipped.
func syncMirror(t *testing.T, ctx context.Context, f *core.Filer, m *mirror, round int) int {
	t.Helper()
	var blocks int
	if _, err := measure(ctx, metersFor(f), fmt.Sprintf("sync %d", round), func(c context.Context, rec *Recorder) (int64, error) {
		rec.Begin("sync")
		var err error
		blocks, err = m.sync(c)
		return 0, err
	}); err != nil {
		t.Fatalf("sync %d: %v", round, err)
	}
	return blocks
}

// churn ages the source past the last synced snapshot.
func churn(t *testing.T, ctx context.Context, f *core.Filer, paths []string, seed int64, rounds int) []string {
	t.Helper()
	paths, err := workload.Age(ctx, f.FS, paths, workload.AgeSpec{
		Seed: seed, Rounds: rounds, ChurnPerRound: 8, MeanFileSize: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// assertStandby checks that the standby holds exactly source snapshot
// snap and is consistent. It inspects a clone: mounting writes a
// consistency point, which would break the next incremental's
// base-generation check.
func assertStandby(t *testing.T, ctx context.Context, f *core.Filer, m *mirror, snap string) {
	t.Helper()
	standby, err := wafl.Mount(ctx, m.standby.Clone(), nil, wafl.Options{})
	if err != nil {
		t.Fatalf("mounting the standby: %v", err)
	}
	sv, err := f.FS.SnapshotView(snap)
	if err != nil {
		t.Fatal(err)
	}
	want, err := workload.TreeDigest(ctx, sv, "/")
	if err != nil {
		t.Fatal(err)
	}
	got, err := workload.TreeDigest(ctx, standby.ActiveView(), "/")
	if err != nil {
		t.Fatal(err)
	}
	if diffs := workload.DiffDigests(want, got); len(diffs) > 0 {
		t.Fatalf("standby differs from %s: %v", snap, diffs[0])
	}
	if err := standby.MustCheck(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestInitialSyncReplicates(t *testing.T) {
	ctx := context.Background()
	f, m, _ := newTestMirror(t, ctx)
	if n := syncMirror(t, ctx, f, m, 0); n == 0 {
		t.Fatal("initial sync shipped nothing")
	}
	assertStandby(t, ctx, f, m, m.last)
}

// TestIncrementalSyncsShipOnlyDeltas checks that every incremental
// ships less than half the initial sync, leaves the standby equal to
// the synced snapshot, and that retention keeps one mirror snapshot on
// the source.
func TestIncrementalSyncsShipOnlyDeltas(t *testing.T) {
	ctx := context.Background()
	f, m, paths := newTestMirror(t, ctx)
	full := syncMirror(t, ctx, f, m, 0)
	for round := 1; round <= 3; round++ {
		paths = churn(t, ctx, f, paths, mirrorTestSeed+int64(round), 1)
		if delta := syncMirror(t, ctx, f, m, round); delta >= full/2 {
			t.Fatalf("sync %d shipped %d blocks against the initial %d: not incremental", round, delta, full)
		}
		assertStandby(t, ctx, f, m, m.last)
	}
	var kept []string
	for _, s := range f.FS.Snapshots() {
		if strings.HasPrefix(s.Name, "mirror.") {
			kept = append(kept, s.Name)
		}
	}
	if len(kept) != 1 || kept[0] != m.last {
		t.Fatalf("mirror snapshots on the source: %v, want only %s", kept, m.last)
	}
}

// TestReplicaSurvivesSourceChurnBetweenSyncs checks that heavy churn on
// the source after a sync leaves the standby equal to the synced
// snapshot, for the initial sync and for an incremental.
func TestReplicaSurvivesSourceChurnBetweenSyncs(t *testing.T) {
	ctx := context.Background()
	f, m, paths := newTestMirror(t, ctx)
	for round := 0; round < 2; round++ {
		syncMirror(t, ctx, f, m, round)
		frozen := m.last
		paths = churn(t, ctx, f, paths, mirrorTestSeed+int64(round), 5)
		assertStandby(t, ctx, f, m, frozen)
	}
}
