package sched

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/scrub"
	"repro/internal/tape"
	"repro/internal/workload"
)

// readbackRig is two scheduled level-0 dumps on cartridges sized so the
// second starts mid-cartridge behind the first and spills onto the next
// volume: the layout every reader of a set on tape has to walk (mount,
// rewind, space to Start, read to the end of the volume, next ref).
type readbackRig struct {
	*schedRig
	set   catalog.DumpSet // the second, two-volume set
	state map[string]workload.Entry
}

func newReadbackRig(t *testing.T, capacity int64) *readbackRig {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Name = "vol0"
	cfg.Simulate = true
	cfg.BlocksPerDisk = 512
	cfg.CartridgesPerDrive = 4
	cfg.TapeParams.Capacity = capacity
	f, err := core.NewFiler(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	workload.Generate(ctx, f.FS, workload.Spec{Seed: 78, Files: 25, DirFanout: 4, MeanFileSize: 6 << 10})
	cat, err := catalog.Open(&catalog.MemStore{})
	if err != nil {
		t.Fatal(err)
	}
	pool := media.NewPool("main", cat)
	if err := pool.Adopt(f.Tapes[0], 0); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Filer: f, Catalog: cat, Pool: pool, Engine: catalog.Logical,
		Policy: BSDLadder{Ladder: []int{0}}})
	if err != nil {
		t.Fatal(err)
	}
	r := &readbackRig{schedRig: &schedRig{f: f, cat: cat, pool: pool, s: s}}
	res, err := s.RunN(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	r.state = r.digest(t)
	r.set, _ = cat.Set(res[1].SetID)
	return r
}

// TestSetReadBackThroughRecoverAndScrub drives the one reader of a set
// on tape (media.SetSource over tape.Drive.ReadData) through both of
// its catalog-driven consumers, on the same damaged media: recovery
// rides out what can be ridden out and fails on the rest with the media
// error; the scrubber rides out the same, and reports the rest with
// volume and record and scans on past it.
func TestSetReadBackThroughRecoverAndScrub(t *testing.T) {
	// Size the cartridges off a trial run: one and a half dumps each.
	trial := newReadbackRig(t, 0)
	capacity := trial.set.Bytes * 3 / 2

	for _, tc := range []struct {
		name string
		// damage hurts one of the set's two volumes (vols) of pool;
		// rec is a record a few into the set on the first.
		damage func(pool *media.Pool, vols []media.Volume, rec int)
		hurt   int // which volume
		// recoverErr is what recovery must fail with (nil: it succeeds
		// and the tree is exact).
		recoverErr func(error) bool
		// finding is the scrub finding the damage must produce (zero: a
		// clean pass), located at the damaged record when Record >= 0.
		finding scrub.FindingKind
		located bool
	}{
		{name: "clean"},
		{name: "transient read fault",
			damage: func(_ *media.Pool, vols []media.Volume, rec int) { vols[0].Cart.InjectMarginalRead(rec) }},
		{name: "persistent read fault",
			damage:     func(_ *media.Pool, vols []media.Volume, rec int) { vols[0].Cart.InjectLatentFault(rec) },
			recoverErr: func(err error) bool { return errors.Is(err, tape.ErrMediaRead) },
			finding:    scrub.MediaFault, located: true},
		{name: "volume the pool cannot mount",
			// Rebinding a known label to no cartridge journals nothing.
			damage: func(pool *media.Pool, vols []media.Volume, _ int) { _ = pool.Register(vols[1].Label, nil, 0) }, hurt: 1,
			recoverErr: func(err error) bool {
				return err != nil && strings.Contains(err.Error(), "cannot mount")
			},
			finding: scrub.OrphanSet},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, consumer := range []string{"recover", "scrub"} {
				r := newReadbackRig(t, capacity)
				refs := r.set.Media
				if len(refs) != 2 || refs[0].Start == 0 || refs[1].Start != 0 {
					t.Fatalf("set media %+v: want two volumes, the first entered mid-cartridge", refs)
				}
				first, _ := r.pool.Volume(refs[0].Volume)
				second, _ := r.pool.Volume(refs[1].Volume)
				rec := int(refs[0].Start) + 3
				if tc.damage != nil {
					tc.damage(r.pool, []media.Volume{first, second}, rec)
				}

				if consumer == "recover" {
					plan, err := r.cat.Plan(catalog.PlanOptions{Engine: catalog.Logical, FSID: "vol0"})
					if err != nil || len(plan.Steps) != 1 || plan.Steps[0].ID != r.set.ID {
						t.Fatalf("plan %v, %v", plan, err)
					}
					_, err = Recover(ctx, r.f, r.pool, plan, RecoverOptions{Wipe: true})
					if tc.recoverErr != nil {
						if !tc.recoverErr(err) {
							t.Fatalf("recover: %v", err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("recover: %v", err)
					}
					if diffs := workload.DiffDigests(r.state, r.digest(t)); len(diffs) > 0 {
						t.Fatalf("recovered tree differs: %v", diffs[0])
					}
					continue
				}

				sc, err := scrub.New(scrub.Config{Catalog: r.cat, Pool: r.pool,
					Open: r.pool.Opener(tape.NewDrive(nil, "scrub/maint", tape.DefaultParams()))})
				if err != nil {
					t.Fatal(err)
				}
				rep, err := sc.Run(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if tc.finding == 0 {
					if len(rep.Findings) != 0 || rep.Sets != 2 {
						t.Fatalf("scrub of readable media: %d sets, findings %v", rep.Sets, rep.Findings)
					}
					if first.Cart.BadRecords() != 0 {
						t.Fatal("a ridden-out read left the record latched bad")
					}
					continue
				}
				var hit *scrub.Finding
				for i, f := range rep.Findings {
					if f.Kind == tc.finding && f.SetID == r.set.ID && f.Volume == refs[tc.hurt].Volume {
						hit = &rep.Findings[i]
					}
				}
				if hit == nil || (tc.located && hit.Record != rec) {
					t.Fatalf("scrub findings %v: want %v on %s (record %d)", rep.Findings, tc.finding, refs[tc.hurt].Volume, rec)
				}
				if tc.located && rep.BytesScanned < 2*r.set.Bytes-64<<10 {
					// Both sets read end to end but for the one bad record.
					t.Fatalf("scrub stopped at the fault: %d bytes scanned of two %d-byte sets", rep.BytesScanned, r.set.Bytes)
				}
				if len(rep.Damaged) != 1 || rep.Damaged[0] != r.set.ID {
					t.Fatalf("damaged sets %v, want the one hurt", rep.Damaged)
				}
			}
		})
	}

	// A restore drive handed in without the set's second cartridge: the
	// stacker cycle proves the label absent and says which.
	r := newReadbackRig(t, capacity)
	first, _ := r.pool.Volume(r.set.Media[0].Volume)
	drive := tape.NewDrive(nil, "short", tape.DefaultParams())
	drive.AddCartridges(first.Cart)
	plan, err := r.cat.Plan(catalog.PlanOptions{Engine: catalog.Logical, FSID: "vol0"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Recover(ctx, r.f, r.pool, plan, RecoverOptions{Wipe: true, Drive: drive})
	if err == nil || !strings.Contains(err.Error(), r.set.Media[1].Volume) {
		t.Fatalf("recover without %s in the drive: %v", r.set.Media[1].Volume, err)
	}
}
