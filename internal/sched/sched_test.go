package sched

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/workload"
)

var ctx = context.Background()

func TestPolicyLevels(t *testing.T) {
	lad := DefaultLadder()
	want := []int{0, 3, 2, 5, 4, 7, 6, 9, 8, 3, 2}
	for run, lvl := range want {
		if got := lad.Level(run); got != lvl {
			t.Fatalf("ladder run %d: level %d, want %d", run, got, lvl)
		}
	}
	// Tower of Hanoi with 5 levels: run n dumps at 5 - trailing zeros,
	// clamped to ≥1 (run 0 is the level-0 full).
	toh := TowerOfHanoi{Levels: 5}
	wantToh := map[int]int{0: 0, 1: 5, 2: 4, 3: 5, 4: 3, 5: 5, 6: 4, 7: 5, 8: 2, 16: 1, 32: 1}
	for run, lvl := range wantToh {
		if got := toh.Level(run); got != lvl {
			t.Fatalf("hanoi run %d: level %d, want %d", run, got, lvl)
		}
	}
}

// schedRig is one filer + catalog + pool wired for scheduled dumps.
type schedRig struct {
	f    *core.Filer
	cat  *catalog.Catalog
	pool *media.Pool
	s    *Scheduler
}

func newRig(t *testing.T, engine catalog.Engine) *schedRig {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Name = "vol0"
	cfg.Simulate = true
	cfg.BlocksPerDisk = 512
	cfg.CartridgesPerDrive = 8
	f, err := core.NewFiler(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	workload.Generate(ctx, f.FS, workload.Spec{Seed: 77, Files: 25, DirFanout: 4, MeanFileSize: 6 << 10})
	if _, err := f.FS.WriteFile(ctx, "/data/report.txt", []byte("v0"), 0644); err != nil {
		t.Fatal(err)
	}

	cat, err := catalog.Open(&catalog.MemStore{})
	if err != nil {
		t.Fatal(err)
	}
	pool := media.NewPool("main", cat)
	if err := pool.Adopt(f.Tapes[0], 0); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Filer:   f,
		Catalog: cat,
		Pool:    pool,
		Engine:  engine,
		Policy:  BSDLadder{Ladder: []int{3, 5}}, // 0, 3, 5: one three-step chain
	})
	if err != nil {
		t.Fatal(err)
	}
	return &schedRig{f: f, cat: cat, pool: pool, s: s}
}

// churn mutates the filesystem between runs, versioning report.txt.
func (r *schedRig) churn(t *testing.T, version int) {
	t.Helper()
	if _, err := r.f.FS.WriteFile(ctx, "/data/report.txt",
		[]byte(fmt.Sprintf("version %d of the report", version)), 0644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.f.FS.WriteFile(ctx, fmt.Sprintf("/churn/new%d", version),
		bytes.Repeat([]byte{byte(version)}, 2048), 0644); err != nil {
		t.Fatal(err)
	}
	if version == 2 {
		if err := r.f.FS.RemovePath(ctx, "/churn/new1"); err != nil {
			t.Fatal(err)
		}
	}
}

func (r *schedRig) digest(t *testing.T) map[string]workload.Entry {
	t.Helper()
	d, err := workload.TreeDigest(ctx, r.f.FS.ActiveView(), "/")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// runThree executes the acceptance schedule — a level 0 and two
// incrementals on the simulated clock, with churn between runs — and
// returns the results and the digest of the state each run captured.
func runThree(t *testing.T, r *schedRig) ([]RunResult, []map[string]workload.Entry) {
	t.Helper()
	var results []RunResult
	var states []map[string]workload.Entry
	for run := 0; run < 3; run++ {
		if run > 0 {
			r.churn(t, run)
		}
		states = append(states, r.digest(t))
		res, err := r.s.RunN(ctx, 1)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		results = append(results, res...)
	}
	wantLevels := []int{0, 3, 5}
	for i, res := range results {
		if res.Level != wantLevels[i] {
			t.Fatalf("run %d at level %d, want %d", i, res.Level, wantLevels[i])
		}
		if len(res.Media) == 0 {
			t.Fatalf("run %d recorded no media", i)
		}
	}
	if results[0].Date >= results[1].Date || results[1].Date >= results[2].Date {
		t.Fatalf("dates not advancing: %v", results)
	}
	return results, states
}

// TestScheduledLogicalRecovery is the acceptance flow for the logical
// engine: scheduled level-0 + two incrementals, then catalog-planned
// recovery — full volume at two points in time and a single file —
// with no manual media list, byte-identical to the dumped states.
func TestScheduledLogicalRecovery(t *testing.T) {
	r := newRig(t, catalog.Logical)
	results, states := runThree(t, r)

	// Each incremental bases on the run before it: the scheduler reads
	// the dump dates from the catalog on every run.
	if sets := r.cat.Sets(); sets[1].BaseDate != sets[0].Date || sets[2].BaseDate != sets[1].Date {
		t.Fatalf("incrementals not based on the runs before them: %+v", sets)
	}

	// Recover at the middle run's time: chain is [level 0, level 3].
	plan, err := r.cat.Plan(catalog.PlanOptions{Engine: catalog.Logical, FSID: "vol0", At: results[1].Date})
	if err != nil {
		t.Fatal(err)
	}
	if ids := planSetIDs(plan); !reflect.DeepEqual(ids, []uint64{results[0].SetID, results[1].SetID}) {
		t.Fatalf("mid-time chain %v", ids)
	}
	res, err := Recover(ctx, r.f, r.pool, plan, RecoverOptions{Wipe: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.FilesRestored == 0 {
		t.Fatal("recovery restored nothing")
	}
	if diffs := workload.DiffDigests(states[1], r.digest(t)); len(diffs) > 0 {
		t.Fatalf("mid-time recovery differs: %v", diffs)
	}

	// Recover the latest state: chain is all three sets.
	plan, err = r.cat.Plan(catalog.PlanOptions{Engine: catalog.Logical, FSID: "vol0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 3 {
		t.Fatalf("latest chain has %d steps: %s", len(plan.Steps), plan)
	}
	if _, err := Recover(ctx, r.f, r.pool, plan, RecoverOptions{Wipe: true}); err != nil {
		t.Fatal(err)
	}
	if diffs := workload.DiffDigests(states[2], r.digest(t)); len(diffs) > 0 {
		t.Fatalf("latest recovery differs: %v", diffs)
	}

	// Single-file recovery: the newest report.txt lives in the level-5
	// set; the plan prunes to that one set.
	if err := r.f.FS.RemovePath(ctx, "/data/report.txt"); err != nil {
		t.Fatal(err)
	}
	plan, err = r.cat.Plan(catalog.PlanOptions{Engine: catalog.Logical, FSID: "vol0", File: "/data/report.txt"})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 1 || plan.Steps[0].ID != results[2].SetID {
		t.Fatalf("file plan %s", plan)
	}
	if _, err := Recover(ctx, r.f, r.pool, plan, RecoverOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := r.f.FS.ActiveView().ReadFile(ctx, "/data/report.txt")
	if err != nil || string(got) != "version 2 of the report" {
		t.Fatalf("single-file recovery: %q, %v", got, err)
	}
}

// TestScheduledImageRecovery is the same acceptance flow through the
// physical engine: the chain is selected by generation links and the
// volume is rebuilt block-for-block, then remounted.
func TestScheduledImageRecovery(t *testing.T) {
	r := newRig(t, catalog.Image)
	results, states := runThree(t, r)

	// Gen chain: each incremental bases on the previous run's snapshot.
	sets := r.cat.Sets()
	if sets[1].BaseGen != sets[0].Gen || sets[2].BaseGen != sets[1].Gen {
		t.Fatalf("generation chain broken: %+v", sets)
	}

	plan, err := r.cat.Plan(catalog.PlanOptions{Engine: catalog.Image, FSID: "vol0", At: results[1].Date})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 2 {
		t.Fatalf("mid-time image chain: %s", plan)
	}
	res, err := Recover(ctx, r.f, r.pool, plan, RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksRestored == 0 {
		t.Fatal("image recovery wrote no blocks")
	}
	if diffs := workload.DiffDigests(states[1], r.digest(t)); len(diffs) > 0 {
		t.Fatalf("mid-time image recovery differs: %v", diffs)
	}

	// Latest state: all three image sets.
	plan, err = r.cat.Plan(catalog.PlanOptions{Engine: catalog.Image, FSID: "vol0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 3 {
		t.Fatalf("latest image chain: %s", plan)
	}
	if _, err := Recover(ctx, r.f, r.pool, plan, RecoverOptions{}); err != nil {
		t.Fatal(err)
	}
	if diffs := workload.DiffDigests(states[2], r.digest(t)); len(diffs) > 0 {
		t.Fatalf("latest image recovery differs: %v", diffs)
	}

	// Single-file extraction from the image chain: replayed offline,
	// the production volume untouched.
	plan, err = r.cat.Plan(catalog.PlanOptions{Engine: catalog.Image, FSID: "vol0", File: "/data/report.txt"})
	if err != nil {
		t.Fatal(err)
	}
	res, err = Recover(ctx, r.f, r.pool, plan, RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Files["/data/report.txt"]) != "version 2 of the report" {
		t.Fatalf("extracted %q", res.Files["/data/report.txt"])
	}
}

// TestScheduledRetentionReclaim runs a longer schedule with KeepLast
// retention and checks volumes are reclaimed only once every set on
// them has expired.
func TestScheduledRetentionReclaim(t *testing.T) {
	r := newRig(t, catalog.Logical)
	r.s.cfg.Policy = BSDLadder{Ladder: []int{0, 0, 0}} // all fulls: no chains to pin media
	r.s.cfg.Retention = media.KeepLast{N: 2}
	var run int
	r.s.cfg.Churn = func(ctx context.Context, n int) error {
		run++
		_, err := r.f.FS.WriteFile(ctx, fmt.Sprintf("/churn/f%d", run), []byte("x"), 0644)
		return err
	}
	results, err := r.s.RunN(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	var expired []uint64
	for _, res := range results {
		expired = append(expired, res.Expired...)
	}
	if len(expired) != 3 {
		t.Fatalf("expired %v, want 3 sets", expired)
	}
	if live := r.cat.Live(); len(live) != 2 {
		t.Fatalf("%d live sets, want 2", len(live))
	}
	// Every live set's media must still be active; a reclaimed volume
	// must hold no live set.
	liveVols := map[string]bool{}
	for _, ds := range r.cat.Live() {
		for _, m := range ds.Media {
			liveVols[m.Volume] = true
		}
	}
	for _, v := range r.pool.Volumes() {
		if liveVols[v.Label] && v.State != media.Active {
			t.Fatalf("volume %s holds live data but is %v", v.Label, v.State)
		}
		if v.State == media.Scratch && liveVols[v.Label] {
			t.Fatalf("volume %s reclaimed while referenced", v.Label)
		}
	}
}

func planSetIDs(p *catalog.Plan) []uint64 {
	out := make([]uint64, len(p.Steps))
	for i, s := range p.Steps {
		out[i] = s.ID
	}
	return out
}

// TestScheduleSurvivesCatalogFailover: the nightly schedule recording
// into a catalog mirrored across two journal copies, with one copy lost
// between runs — first one, then the other. Each time the catalog is
// reopened over the pair, as a restarted host would: the schedule
// carries on from the surviving copy, later runs land in both, and the
// copies converge byte for byte and replay every recorded set.
func TestScheduleSurvivesCatalogFailover(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Name = "vol0"
	cfg.Simulate = true
	cfg.BlocksPerDisk = 512
	cfg.CartridgesPerDrive = 8
	f, err := core.NewFiler(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	workload.Generate(ctx, f.FS, workload.Spec{Seed: 77, Files: 25, DirFanout: 4, MeanFileSize: 6 << 10})

	copies := [2]*catalog.MemStore{{}, {}}
	r := &schedRig{f: f}
	open := func() {
		t.Helper()
		store, err := catalog.Mirror(copies[0], copies[1])
		if err != nil {
			t.Fatal(err)
		}
		if r.cat, err = catalog.Open(store); err != nil {
			t.Fatal(err)
		}
		r.pool = media.NewPool("main", r.cat)
		if err := r.pool.Adopt(f.Tapes[0], 0); err != nil {
			t.Fatal(err)
		}
		if r.s != nil {
			r.s.cfg.Catalog, r.s.cfg.Pool = r.cat, r.pool
		}
	}
	open()
	if r.s, err = New(Config{
		Filer: f, Catalog: r.cat, Pool: r.pool, Engine: catalog.Logical,
		Policy: BSDLadder{Ladder: []int{3, 5}},
	}); err != nil {
		t.Fatal(err)
	}

	if _, err := r.s.RunN(ctx, 1); err != nil {
		t.Fatalf("run 0: %v", err)
	}
	for run, lost := range []int{0, 1} {
		copies[lost].Buf = nil
		open()
		if !bytes.Equal(copies[0].Buf, copies[1].Buf) {
			t.Fatalf("copy %d was not repaired at open", lost)
		}
		r.churn(t, run+1)
		if _, err := r.s.RunN(ctx, 1); err != nil {
			t.Fatalf("run %d after losing copy %d: %v", run+1, lost, err)
		}
	}

	if !bytes.Equal(copies[0].Buf, copies[1].Buf) {
		t.Fatalf("copies diverged: %d vs %d bytes", len(copies[0].Buf), len(copies[1].Buf))
	}
	replay, err := catalog.Open(&catalog.MemStore{Buf: copies[1].Buf})
	if err != nil {
		t.Fatalf("replaying mirrored catalog: %v", err)
	}
	if got := len(replay.Sets()); got != 3 {
		t.Fatalf("mirrored catalog replays %d sets, want 3", got)
	}
	for i, ds := range replay.Sets() {
		if len(ds.Media) == 0 {
			t.Fatalf("set %d recorded no media", i)
		}
	}
}

// flakyStore is a catalog store whose appends start failing after a
// budget of successes, for failures between a run's catalog record and
// its media commit.
type flakyStore struct {
	catalog.MemStore
	budget int // appends still allowed; negative = unlimited
}

func (s *flakyStore) Append(p []byte) error {
	if s.budget == 0 {
		return errors.New("test: journal device failed")
	}
	if s.budget > 0 {
		s.budget--
	}
	return s.MemStore.Append(p)
}

// TestImageRunKeepsSnapshotOnceCataloged: a failed image dump deletes
// the snapshot it took, but a run that fails after its set reached the
// catalog must not — the catalog now names a set whose snapshot later
// incrementals base on.
func TestImageRunKeepsSnapshotOnceCataloged(t *testing.T) {
	r := newRig(t, catalog.Image)
	store := &flakyStore{budget: -1}
	cat, err := catalog.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	r.s.cfg.Catalog, r.s.cfg.Pool = cat, media.NewPool("main", cat)

	store.budget = 1 // the dump set lands; the pool's media events do not
	if _, err := r.s.RunN(ctx, 1); err == nil {
		t.Fatal("run succeeded with a failing journal")
	}
	sets := cat.Live()
	if len(sets) != 1 {
		t.Fatalf("%d sets cataloged, want the one whose commit failed", len(sets))
	}
	if _, err := r.f.FS.Snapshot(sets[0].Snap); err != nil {
		t.Fatalf("cataloged set %d lost its snapshot %q: %v", sets[0].ID, sets[0].Snap, err)
	}

}

// TestRunSkipsQuarantinedMedia: a volume the scrubber quarantined stays
// mounted in the schedule's drive, and the next run must not land its
// set on it; with every cartridge quarantined, a run fails and
// catalogs nothing.
func TestRunSkipsQuarantinedMedia(t *testing.T) {
	r := newRig(t, catalog.Logical)
	if _, err := r.s.RunN(ctx, 1); err != nil {
		t.Fatal(err)
	}
	loaded := r.f.Tapes[schedDrive].Loaded().Label
	if err := r.pool.Quarantine(loaded, r.f.FS.Clock()); err != nil {
		t.Fatal(err)
	}
	res, err := r.s.RunN(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range res[0].Media {
		if label == loaded {
			t.Fatalf("run 1 landed on quarantined volume %q (media %v)", loaded, res[0].Media)
		}
	}

	for _, v := range r.pool.Volumes() {
		if err := r.pool.Quarantine(v.Label, r.f.FS.Clock()); err != nil {
			t.Fatal(err)
		}
	}
	sets := len(r.cat.Sets())
	written, _, _ := r.f.Tapes[schedDrive].Stats()
	if _, err := r.s.RunN(ctx, 1); err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("run onto an all-quarantined stacker: %v", err)
	}
	if got, _, _ := r.f.Tapes[schedDrive].Stats(); got != written || len(r.cat.Sets()) != sets {
		t.Fatalf("the refused run wrote %d bytes and cataloged %d sets", got-written, len(r.cat.Sets())-sets)
	}

	// A set spanning cartridges switches volume mid-dump, and the switch
	// skips a quarantined cartridge too. Cartridges of 5/4 of a dump
	// leave half a dump free on the mounted one after two runs, so the
	// third spills onto the next in the stacker — quarantined here.
	trial := newReadbackRig(t, 0)
	sp := newReadbackRig(t, trial.set.Bytes*5/4)
	next := sp.f.Tapes[schedDrive].Stacker()[0].Label
	if err := sp.pool.Quarantine(next, sp.f.FS.Clock()); err != nil {
		t.Fatal(err)
	}
	res, err = sp.s.RunN(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Media) < 2 {
		t.Fatalf("run did not span: media %v", res[0].Media)
	}
	for _, label := range res[0].Media {
		if label == next {
			t.Fatalf("spanning run switched onto quarantined volume %q (media %v)", next, res[0].Media)
		}
	}
}
