// Catalog recovery: the operational story the backup catalog exists
// for, end to end on the simulated clock.
//
//  1. A week of nightly dumps runs on the BSD ladder; every completed
//     set is journaled in the catalog and its media committed to the
//     pool.
//  2. Retention expires old chains; reclamation erases a cartridge
//     only once no unexpired set references it.
//  3. The filer crashes mid-append to the catalog journal. Reopening
//     recovers it: the torn record is discarded, every acknowledged
//     set survives.
//  4. The recovered catalog — not an operator's tape list — plans the
//     restore chain for a point in time and for a single lost file,
//     and the recover executor mounts the right cartridges and
//     replays it byte-identically.
//
// Run with: go run ./examples/catalogrecovery
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/sched"
	"repro/internal/workload"
)

func main() {
	ctx := context.Background()
	cfg := core.DefaultConfig()
	cfg.Name = "home0"
	cfg.Simulate = true
	cfg.BlocksPerDisk = 512
	cfg.CartridgesPerDrive = 16
	// Small cartridges, so dumps spread across media and retention can
	// actually hand cartridges back to the scratch pool.
	cfg.TapeParams.Capacity = 128 << 10
	filer, err := core.NewFiler(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := workload.Generate(ctx, filer.FS, workload.Spec{
		Seed: 7, Files: 30, DirFanout: 5, MeanFileSize: 6 << 10,
	}); err != nil {
		log.Fatal(err)
	}

	// The catalog journal and the media pool it governs.
	store := &catalog.MemStore{}
	cat, err := catalog.Open(store)
	if err != nil {
		log.Fatal(err)
	}
	pool := media.NewPool("nightly", cat)
	if err := pool.Adopt(filer.Tapes[0], 0); err != nil {
		log.Fatal(err)
	}

	// A week of nightly dumps: level 0 then the ladder, with users
	// editing a report between runs and retention keeping the newest
	// three sets (plus whatever their chains need).
	scheduler, err := sched.New(sched.Config{
		Filer: filer, Catalog: cat, Pool: pool,
		Engine:    catalog.Logical,
		Policy:    sched.BSDLadder{Ladder: []int{3, 2, 5, 4, 7, 6}},
		Retention: media.KeepLast{N: 3},
		Churn: func(ctx context.Context, run int) error {
			if _, err := filer.FS.WriteFile(ctx, "/data/report.txt",
				[]byte(fmt.Sprintf("report, nightly revision %d\n", run)), 0644); err != nil {
				return err
			}
			// A day of bulk churn, so incrementals are big enough to
			// occupy cartridges of their own and retention visibly
			// hands media back.
			day := make([]byte, 80<<10)
			rand.New(rand.NewSource(int64(run))).Read(day)
			_, err := filer.FS.WriteFile(ctx, "/data/day.bin", day, 0644)
			return err
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	results, err := scheduler.RunN(ctx, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== a week of scheduled dumps ==")
	for _, r := range results {
		fmt.Printf("night %d: level %d -> set %d on %v (%d bytes)",
			r.Run, r.Level, r.SetID, r.Media, r.Bytes)
		if len(r.Expired) > 0 {
			fmt.Printf(", retention expired sets %v", r.Expired)
		}
		fmt.Println()
	}

	fmt.Println("\n== media pool after retention and reclamation ==")
	for _, v := range pool.Volumes() {
		fmt.Printf("%-8s %-8s sets %v\n", v.Label, v.State, v.Sets)
	}

	// Crash mid-append: the journal ends in a torn record. Reopening
	// truncates it away; nothing acknowledged is lost.
	intact := cat.Sets()
	torn := tornJournal(store.Buf)
	fmt.Printf("\n== crash mid-append: journal %d bytes, %d of them torn ==\n",
		len(torn), len(torn)-len(store.Buf))
	recovered, err := catalog.Open(&catalog.MemStore{Buf: torn})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered: %d sets (had %d), %d torn bytes discarded\n",
		len(recovered.Sets()), len(intact), recovered.TornBytes)

	// Point-in-time recovery from the recovered catalog: the planner
	// assembles the full + incremental chain; no manual media list.
	target := results[5]
	plan, err := recovered.Plan(catalog.PlanOptions{
		Engine: catalog.Logical, FSID: "home0", At: target.Date,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== recovering night %d (date %d) ==\n", target.Run, target.Date)
	fmt.Print(plan.String())
	if _, err := sched.Recover(ctx, filer, pool, plan, sched.RecoverOptions{Wipe: true}); err != nil {
		log.Fatal(err)
	}
	data, err := filer.FS.ActiveView().ReadFile(ctx, "/data/report.txt")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("report.txt after recovery: %q\n", data)

	// Stupidity recovery: the report vanishes; one file, one plan —
	// pruned to the single newest set whose index holds it.
	if err := filer.FS.RemovePath(ctx, "/data/report.txt"); err != nil {
		log.Fatal(err)
	}
	filePlan, err := recovered.Plan(catalog.PlanOptions{
		Engine: catalog.Logical, FSID: "home0", File: "/data/report.txt",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== single-file recovery ==\n")
	fmt.Print(filePlan.String())
	if _, err := sched.Recover(ctx, filer, pool, filePlan, sched.RecoverOptions{}); err != nil {
		log.Fatal(err)
	}
	data, err = filer.FS.ActiveView().ReadFile(ctx, "/data/report.txt")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("report.txt is back: %q\n", data)

	// Epilogue: a fresh full dump releases the old chain. Once every
	// set on a cartridge has expired — and only then — reclamation
	// erases it back to scratch; cartridges sharing even one live set
	// stay protected.
	fmt.Println("\n== fresh full dump, then retention reclaims the old chain ==")
	fresh, err := sched.New(sched.Config{
		Filer: filer, Catalog: cat, Pool: pool, Engine: catalog.Logical,
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := fresh.RunN(ctx, 1); err != nil { // a new scheduler's run 0 is a level 0
		log.Fatal(err)
	}
	if _, err := pool.ApplyRetention(media.KeepLast{N: 1}, "home0", catalog.Logical, 999); err != nil {
		log.Fatal(err)
	}
	reclaimed, err := pool.Reclaim(999)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reclaimed cartridges: %v\n", reclaimed)
	for _, v := range pool.Volumes() {
		fmt.Printf("%-12s %-8s sets %v\n", v.Label, v.State, v.Sets)
	}
}

// tornJournal returns the journal as a crash mid-append would leave
// it: every acknowledged record intact plus a prefix of one more.
func tornJournal(buf []byte) []byte {
	base := append([]byte(nil), buf...)
	scratch := &catalog.MemStore{Buf: append([]byte(nil), base...)}
	cat, err := catalog.Open(scratch)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := cat.AppendDumpSet(catalog.DumpSet{
		Engine: catalog.Logical, FSID: "home0", Level: 9, Date: 1 << 40,
		Media: []catalog.MediaRef{{Volume: "never-finished"}},
	}); err != nil {
		log.Fatal(err)
	}
	frame := scratch.Buf[len(base):]
	cut := 1 + rand.New(rand.NewSource(42)).Intn(len(frame)-1)
	return append(base, frame[:cut]...)
}
