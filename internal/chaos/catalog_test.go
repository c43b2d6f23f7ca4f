package chaos

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/sched"
	"repro/internal/scrub"
	"repro/internal/tape"
	"repro/internal/workload"
)

// schedRig is a filer with scheduled, catalogued dumps — the sched
// acceptance rig, rebuilt here so the chaos suite can crash its journal
// and rot its media between runs. With scrubbing it also has a
// scrubber over the schedule's catalog and pool, for the test to run
// when it wants a pass.
type schedRig struct {
	engine catalog.Engine
	f      *core.Filer
	cat    *catalog.Catalog
	store  *catalog.MemStore
	pool   *media.Pool
	s      *sched.Scheduler
	scr    *scrub.Scrubber
}

func newSchedRig(t *testing.T, engine catalog.Engine, scrubbing bool) *schedRig {
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
	if _, err := workload.Generate(ctx, f.FS, workload.Spec{
		Seed: 99, Files: 20, DirFanout: 4, MeanFileSize: 6 << 10,
	}); err != nil {
		t.Fatal(err)
	}
	r := &schedRig{engine: engine, f: f, store: &catalog.MemStore{}}
	if r.cat, err = catalog.Open(r.store); err != nil {
		t.Fatal(err)
	}
	r.pool = media.NewPool("main", r.cat)
	if err := r.pool.Adopt(f.Tapes[0], 0); err != nil {
		t.Fatal(err)
	}
	if scrubbing {
		if r.scr, err = scrub.New(scrub.Config{Catalog: r.cat, Pool: r.pool,
			Open: r.pool.Opener(tape.NewDrive(f.Env, "scrub/maint", tape.DefaultParams()))}); err != nil {
			t.Fatal(err)
		}
	}
	if r.s, err = sched.New(sched.Config{
		Filer: f, Catalog: r.cat, Pool: r.pool, Engine: engine,
		Policy: sched.BSDLadder{Ladder: []int{3, 5}},
	}); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *schedRig) digest(t *testing.T) map[string]workload.Entry {
	t.Helper()
	d, err := workload.TreeDigest(ctx, r.f.FS.ActiveView(), "/")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// recover executes plan on the filer, reformatting first for the
// logical engine, and requires the restored tree to equal want; what
// says which restore failed.
func (r *schedRig) recover(t *testing.T, plan *catalog.Plan, want map[string]workload.Entry, what string) {
	t.Helper()
	if _, err := sched.Recover(ctx, r.f, r.pool, plan, sched.RecoverOptions{Wipe: r.engine == catalog.Logical}); err != nil {
		t.Fatalf("%s: recover: %v", what, err)
	}
	if diffs := workload.DiffDigests(want, r.digest(t)); len(diffs) > 0 {
		t.Fatalf("%s: restored tree differs: %v", what, diffs)
	}
}

// crashMidAppend returns the journal as a crash would leave it: every
// acknowledged record intact, plus a torn prefix of one more record
// whose append never returned.
func crashMidAppend(t *testing.T, buf []byte, rng *rand.Rand) []byte {
	t.Helper()
	base := append([]byte(nil), buf...)
	scratch := &catalog.MemStore{Buf: append([]byte(nil), base...)}
	cat, err := catalog.Open(scratch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.AppendDumpSet(catalog.DumpSet{
		Engine: catalog.Logical, FSID: "vol0", Level: 9,
		Date: 1 << 40, Media: []catalog.MediaRef{{Volume: "never-written"}},
	}); err != nil {
		t.Fatal(err)
	}
	torn := scratch.Buf[len(base):]
	cut := 1 + rng.Intn(len(torn)-1)
	return append(base, torn[:cut]...)
}

// TestChaosCatalogCrashRecovery crashes the backup catalog mid-append
// after a scheduled full + two incrementals, reopens it, and demands
// that (a) no acknowledged dump set is lost, (b) the recovered catalog
// still plans and executes a byte-identical restore of the dumped
// state, and (c) the journal accepts appends again after recovery.
func TestChaosCatalogCrashRecovery(t *testing.T) {
	for seed := int64(1); seed <= int64(seedCount()); seed++ {
		for _, engine := range []catalog.Engine{catalog.Logical, catalog.Image} {
			t.Run(fmt.Sprintf("seed%d-%s", seed, engine), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				r := newSchedRig(t, engine, false)

				var states []map[string]workload.Entry
				for run := 0; run < 3; run++ {
					if run > 0 {
						if _, err := r.f.FS.WriteFile(ctx, "/data/report.txt",
							[]byte(fmt.Sprintf("revision %d", run)), 0644); err != nil {
							t.Fatal(err)
						}
					}
					states = append(states, r.digest(t))
					if _, err := r.s.RunN(ctx, 1); err != nil {
						t.Fatalf("run %d: %v", run, err)
					}
				}
				wantSets := r.cat.Sets()

				// Crash mid-append at a seeded offset and recover.
				torn := crashMidAppend(t, r.store.Buf, rng)
				recStore := &catalog.MemStore{Buf: torn}
				rec, err := catalog.Open(recStore)
				if err != nil {
					t.Fatalf("recovery open: %v", err)
				}
				if rec.TornBytes == 0 {
					t.Fatal("recovery did not report the torn tail")
				}
				got := rec.Sets()
				if len(got) != len(wantSets) {
					t.Fatalf("recovered %d sets, want %d", len(got), len(wantSets))
				}
				for i := range got {
					if got[i].ID != wantSets[i].ID || !bytes.Equal([]byte(got[i].FSID), []byte(wantSets[i].FSID)) {
						t.Fatalf("recovered set %d: %+v != %+v", i, got[i], wantSets[i])
					}
				}

				// The recovered catalog plans and the plan restores the
				// dumped state byte-identically (media pool unchanged —
				// the crash took out the catalog, not the tapes).
				plan, err := rec.Plan(catalog.PlanOptions{Engine: engine, FSID: "vol0"})
				if err != nil {
					t.Fatalf("plan from recovered catalog: %v", err)
				}
				if len(plan.Steps) != 3 {
					t.Fatalf("recovered plan has %d steps: %s", len(plan.Steps), plan)
				}
				r.recover(t, plan, states[2], "recovered catalog")

				// The journal keeps working: the torn record's ID is
				// reused, as if the interrupted append never happened.
				id, err := rec.AppendDumpSet(catalog.DumpSet{
					Engine: engine, FSID: "vol0", Level: 1,
					Date:  wantSets[len(wantSets)-1].Date + 1,
					Media: []catalog.MediaRef{{Volume: "t9"}},
				})
				if err != nil {
					t.Fatalf("append after recovery: %v", err)
				}
				if want := wantSets[len(wantSets)-1].ID + 1; id != want {
					t.Fatalf("post-recovery ID %d, want %d", id, want)
				}
			})
		}
	}
}
