package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/media"
	"repro/internal/workload"
)

// rot injects one fault at the first record of a catalogued set:
// a latched read error (detected by the drive) or a silent bit flip
// (detected only by the stream's own checksums).
func (r *schedRig) rot(t *testing.T, setID uint64, latent bool) string {
	t.Helper()
	ds, ok := r.cat.Set(setID)
	if !ok {
		t.Fatalf("rot: set %d not in catalog", setID)
	}
	ref := ds.Media[0]
	v, ok := r.pool.Volume(ref.Volume)
	if !ok || v.Cart == nil {
		t.Fatalf("rot: volume %q not mountable", ref.Volume)
	}
	if latent {
		if !v.Cart.InjectLatentFault(int(ref.Start)) {
			t.Fatalf("rot: latent inject at %d failed", ref.Start)
		}
	} else if !v.Cart.CorruptRecord(int(ref.Start)) {
		t.Fatalf("rot: corrupt at %d failed", ref.Start)
	}
	return ref.Volume
}

// TestChaosScrubBitRotRepair: latent read faults and silent bit flips
// land on catalogued media between scheduled runs, and a scrub runs
// after each. Every rot must be condemned before a restore needs the
// set: the victim marked damaged, its volume quarantined — and still
// quarantined after the later runs land on it — and no healthy set
// condemned. The final plan must contain no damaged set and restore
// byte-identically to the tree its newest step dumped; if every chain
// passes through damage, the planner must refuse with the typed error.
// A corrupted record must never reach a restore undetected.
func TestChaosScrubBitRotRepair(t *testing.T) {
	for seed := int64(1); seed <= int64(seedCount()); seed++ {
		for _, engine := range []catalog.Engine{catalog.Logical, catalog.Image} {
			t.Run(fmt.Sprintf("seed%d-%s", seed, engine), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				r := newSchedRig(t, engine, true)

				// dumped is the tree each set's run dumped; victims, the
				// sets rotted so far, and quarantined, their volumes.
				dumped := map[uint64]map[string]workload.Entry{}
				victims := map[uint64]bool{}
				var quarantined []string
				for run := 0; run < 3; run++ {
					if run > 0 {
						if _, err := r.f.FS.WriteFile(ctx, "/data/report.txt",
							[]byte(fmt.Sprintf("revision %d", run)), 0644); err != nil {
							t.Fatal(err)
						}
						// Rot a random already-catalogued set, then scrub.
						live := r.cat.Live()
						victim := live[rng.Intn(len(live))]
						_, wasDamaged := r.cat.Damaged(victim.ID)
						vol := r.rot(t, victim.ID, rng.Intn(2) == 0)
						victims[victim.ID] = true
						rep, err := r.scr.Run(ctx)
						if err != nil {
							t.Fatalf("run %d: scrub: %v", run, err)
						}
						if !wasDamaged && (len(rep.Damaged) != 1 || rep.Damaged[0] != victim.ID) {
							t.Fatalf("run %d: scrub did not condemn set %d: %+v", run, victim.ID, rep)
						}
						if _, bad := r.cat.Damaged(victim.ID); !bad {
							t.Fatalf("run %d: rotted set %d not damaged", run, victim.ID)
						}
						for _, f := range rep.Findings {
							if f.SetID != victim.ID {
								t.Fatalf("run %d: finding off the rotted set %d: %v", run, victim.ID, f)
							}
						}
						quarantined = append(quarantined, vol)
					}
					want := r.digest(t)
					res, err := r.s.RunOne(ctx)
					if err != nil {
						t.Fatalf("run %d: %v", run, err)
					}
					dumped[res.SetID] = want
					for _, vol := range quarantined {
						if v, _ := r.pool.Volume(vol); v.State != media.Quarantined {
							t.Fatalf("run %d landed: volume %q %s, want quarantined", run, vol, v.State)
						}
					}
				}
				for _, id := range r.cat.DamagedSets() {
					if !victims[id] {
						t.Fatalf("set %d condemned but never rotted (victims %v)", id, victims)
					}
				}

				// The first rot can only land on the full every chain of
				// this schedule needs, so the refusal is what this gauntlet
				// meets; TestChaosScrubDegradeRouteAround restores around
				// damage.
				plan, err := r.cat.Plan(catalog.PlanOptions{Engine: engine, FSID: "vol0"})
				var up *catalog.UnplannableError
				if errors.As(err, &up) {
					// Refused: then no chain may avoid the damage.
					for _, ds := range r.cat.Live() {
						if !r.chainDamaged(ds) {
							t.Fatalf("plan refused (%v), but set %d's chain is undamaged", err, ds.ID)
						}
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				for _, st := range plan.Steps {
					if _, bad := r.cat.Damaged(st.ID); bad {
						t.Fatalf("plan %s restores damaged set %d", plan, st.ID)
					}
				}
				r.recover(t, plan, dumped[plan.Steps[len(plan.Steps)-1].ID], "plan around the rot")
			})
		}
	}
}

// chainDamaged reports whether restoring ds needs a damaged set: ds
// itself or one its chain of bases reaches (a broken chain counts).
func (r *schedRig) chainDamaged(ds catalog.DumpSet) bool {
	for {
		if _, bad := r.cat.Damaged(ds.ID); bad {
			return true
		}
		if ds.Full() {
			return false
		}
		base, ok := r.cat.Base(ds)
		if !ok {
			return true
		}
		ds = base
	}
}

// TestChaosScrubDegradeRouteAround: the same rot on a chosen set. The
// scrub must mark the set damaged and quarantine its
// media BEFORE any restore touches it, the planner must route the
// restore around the damaged set (an older intact generation), and the
// rerouted restore must be byte-identical to the state that chain
// dumped. The full chain stays reachable only through the explicit
// salvage escape hatch.
func TestChaosScrubDegradeRouteAround(t *testing.T) {
	for seed := int64(1); seed <= int64(seedCount()); seed++ {
		for _, engine := range []catalog.Engine{catalog.Logical, catalog.Image} {
			t.Run(fmt.Sprintf("seed%d-%s", seed, engine), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				r := newSchedRig(t, engine, true)

				// Full, then two chained incrementals.
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

				// Rot the middle incremental: every later set chains
				// through it.
				vol := r.rot(t, 2, rng.Intn(2) == 0)
				rep, err := r.scr.Run(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Damaged) != 1 || rep.Damaged[0] != 2 {
					t.Fatalf("scrub did not degrade set 2: %+v", rep)
				}
				if len(rep.Quarantined) == 0 {
					t.Fatalf("no media quarantined: %+v", rep)
				}
				v, _ := r.pool.Volume(vol)
				if v.State != media.Quarantined {
					t.Fatalf("volume %q state %s, want quarantined", vol, v.State)
				}
				if got, err := r.pool.Reclaim(1 << 50); err != nil || len(got) != 0 {
					t.Fatalf("Reclaim touched quarantined media: %v %v", got, err)
				}

				// Route around: the only undamaged chain is the bare full.
				plan, err := r.cat.Plan(catalog.PlanOptions{Engine: engine, FSID: "vol0"})
				if err != nil {
					t.Fatalf("plan did not route around damage: %v", err)
				}
				if len(plan.Steps) != 1 || plan.Steps[0].ID != 1 {
					t.Fatalf("rerouted plan = %s, want the level-0 set alone", plan)
				}
				r.recover(t, plan, states[0], "rerouted to the full")

				// Rot the full as well: now every chain passes through
				// damage, and the scrub must degrade it too.
				r.rot(t, 1, rng.Intn(2) == 0)
				rep2, err := r.scr.Run(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep2.Damaged) != 1 || rep2.Damaged[0] != 1 {
					t.Fatalf("scrub did not degrade set 1: %+v", rep2)
				}
				// With no undamaged chain left the planner refuses with
				// the typed error naming every blocked chain...
				_, err = r.cat.Plan(catalog.PlanOptions{Engine: engine, FSID: "vol0"})
				var up *catalog.UnplannableError
				if !errors.As(err, &up) {
					t.Fatalf("plan through damage: want *UnplannableError, got %v", err)
				}
				if len(up.Blocked) == 0 {
					t.Fatalf("UnplannableError names no blocked chains: %v", up)
				}
				// ...and the salvage escape hatch still yields the chain.
				p2, err := r.cat.Plan(catalog.PlanOptions{
					Engine: engine, FSID: "vol0", IncludeDamaged: true,
				})
				if err != nil {
					t.Fatalf("IncludeDamaged plan: %v", err)
				}
				if len(p2.Steps) != 3 {
					t.Fatalf("salvage plan = %s, want the 3-step chain", p2)
				}
			})
		}
	}
}
