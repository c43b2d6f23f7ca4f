// Command benchtables regenerates every table of the paper's
// evaluation (§5) plus the extension and ablation experiments indexed
// in DESIGN.md, printing them in the paper's layout. All time is
// virtual (discrete-event simulated); data sizes are laptop-scale, so
// rates, ratios and utilizations — not absolute hours — are the
// numbers to compare with the paper.
//
// Usage:
//
//	benchtables [-table N] [-mb M] [-age R] [-seed S] [-noverify]
//
// Tables: 1 block states, 2 basic throughput, 3 stage breakdown,
// 4 two drives, 5 four drives, 6 concurrent volumes, 7 scaling
// summary, 8 NVRAM ablation, 9 read-ahead ablation, 10 zero-copy
// ablation, 11 incremental dumps, 12 mirroring lag, 13 dedup week,
// 14 reader/read-ahead sweep at 4 drives. Default: all. Tables 13 and
// 14 run at the fixed scale their EXPERIMENTS.md sections quote (16 MB
// seed 7; 24 MB, 4 aging rounds), whatever -mb, -age and -seed say.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	table := flag.Int("table", 0, "table to regenerate (0 = all)")
	mb := flag.Int("mb", 48, "dataset size in MiB")
	age := flag.Int("age", 6, "aging rounds (fragmentation)")
	seed := flag.Int64("seed", 1999, "workload seed")
	noverify := flag.Bool("noverify", false, "skip restored-tree verification")
	flag.Parse()

	cfg := bench.DefaultConfig()
	cfg.DataMB = *mb
	cfg.AgeRounds = *age
	cfg.Seed = *seed
	cfg.Verify = !*noverify

	ctx := context.Background()
	want := func(n int) bool { return *table == 0 || *table == n }

	if want(1) {
		fmt.Println(bench.Table1())
	}
	if want(2) || want(3) {
		res, err := bench.RunBasic(ctx, cfg)
		die(err)
		if want(2) {
			fmt.Println(bench.FormatOpsTable(
				fmt.Sprintf("Table 2: Basic Backup and Restore Performance (%d MB mature dataset)", res.DataBytes>>20),
				res.Ops()))
		}
		if want(3) {
			ops := res.Ops()
			for i, name := range []string{"Logical Dump", "Logical Restore", "Physical Dump", "Physical Restore"} {
				ops[i].Name = name // Table 3 says "Dump" where Table 2 says "Backup"
			}
			fmt.Println(bench.FormatStagesTable("Table 3: Dump and Restore Details", ops))
		}
	}
	// Tables 4, 5 and 7 read the same experiment: each drive count runs
	// at most once.
	runs := map[int]*bench.Result{}
	parallel := func(drives int) *bench.Result {
		if runs[drives] == nil {
			res, err := bench.RunParallel(ctx, cfg, drives)
			die(err)
			runs[drives] = res
		}
		return runs[drives]
	}
	for _, tc := range []struct{ n, drives int }{{4, 2}, {5, 4}} {
		if !want(tc.n) {
			continue
		}
		res := parallel(tc.drives)
		fmt.Println(bench.FormatParallelTable(
			fmt.Sprintf("Table %d: Parallel Backup and Restore Performance on %d tape drives (%d MB)",
				tc.n, tc.drives, res.DataBytes>>20),
			res.Ops()))
		fmt.Println(bench.FormatOpsTable("  Aggregate:", res.Ops()))
	}
	if want(6) {
		res, err := bench.RunConcurrentVolumes(ctx, cfg)
		die(err)
		fmt.Println(bench.FormatOpsTable("Table 6: Concurrent dumps of two volumes (cf. §5.1)",
			[]bench.OpResult{res.HomeIsolated, res.RlseIsolated, res.HomeConcurrent, res.RlseConcurrent}))
	}
	if want(7) {
		fmt.Println("Table 7: Backup scaling with tape drives (cf. §5.2–5.3)")
		fmt.Printf("%-8s %-28s %-28s\n", "Drives", "Logical GB/h (per tape, CPU)", "Physical GB/h (per tape, CPU)")
		for _, drives := range []int{1, 2, 4} {
			p := parallel(drives).Scaling()
			fmt.Printf("%-8d %6.1f (%5.1f, %3.0f%%)          %6.1f (%5.1f, %3.0f%%)\n",
				p.Drives, p.LogicalGBph, p.LogicalPer, 100*p.LogicalCPU,
				p.PhysGBph, p.PhysPer, 100*p.PhysCPU)
		}
		fmt.Println()
	}
	for _, tc := range []struct {
		n   int
		run func(context.Context, bench.Config) (*bench.AblationResult, error)
	}{{8, bench.RunNVRAMAblation}, {9, bench.RunReadAheadAblation}, {10, bench.RunCopyAblation}} {
		if !want(tc.n) {
			continue
		}
		res, err := tc.run(ctx, cfg)
		die(err)
		fmt.Printf("Table %d: %s (speedup %.2fx)\n", tc.n, res.Name, res.Speedup())
		fmt.Println(bench.FormatOpsTable("", []bench.OpResult{res.Baseline, res.Variant}))
	}
	if want(12) {
		pts, err := bench.RunMirrorLag(ctx, cfg, []float64{1, 4, 16})
		die(err)
		fmt.Println("Table 12: Incremental-image mirroring over a network link (§6 extension)")
		fmt.Printf("%-12s %-28s %-28s\n", "Link MB/s", "Initial sync (blocks)", "Steady sync after ~3% churn")
		for _, p := range pts {
			fmt.Printf("%-12.1f %-10v (%6d)          %-10v (%6d)\n",
				p.LinkMBps, p.InitialSync.Round(time.Millisecond), p.InitialBlk,
				p.SteadySync.Round(time.Millisecond), p.SteadyBlk)
		}
		fmt.Println()
	}
	if want(11) {
		res, err := bench.RunIncremental(ctx, cfg)
		die(err)
		fmt.Println("Table 11: Incremental dumps after ~5% churn (§6 extension)")
		fmt.Printf("  Logical:  full %8d KB in %-12v  level-1 %8d KB in %v\n",
			res.FullLogicalBytes>>10, res.FullLogical.Elapsed, res.IncrLogicalBytes>>10, res.IncrLogical.Elapsed)
		fmt.Printf("  Physical: full %8d blocks in %-9v incr    %8d blocks in %v\n",
			res.FullPhysicalBlocks, res.FullPhysical.Elapsed, res.IncrPhysicalBlocks, res.IncrPhysical.Elapsed)
		fmt.Println()
	}
	if want(13) {
		week := bench.Config{DataMB: 16, Seed: 7}
		fmt.Printf("Table 13: A deduplicated week of fulls (%d MB dataset, ~2%% churn per day)\n", week.DataMB)
		for _, reverse := range []bool{false, true} {
			rep, err := bench.RunChunkWeek(ctx, week, reverse)
			die(err)
			mode := "forward"
			if reverse {
				mode = "reverse"
			}
			fmt.Printf("  %s dedup\n", mode)
			fmt.Println("  day  logical MB   added MB      hits    misses  rewrites   dump sim s")
			for _, d := range rep.Days {
				fmt.Printf("  %3d  %10.2f  %9.2f  %8d  %8d  %8d  %11.2f\n",
					d.Day, d.LogicalMB, d.AddedMB, d.Hits, d.Misses, d.Rewrites, d.DumpSimSec)
			}
			fmt.Printf("  dedup ratio: %.2fx (%.2f MB logical in %.2f MB unique stored)\n",
				rep.DedupRatio, float64(rep.LogicalBytes)/(1<<20), float64(rep.UniqueBytes)/(1<<20))
			fmt.Printf("  restore latest %.2fs, oldest %.2fs, streaming baseline %.2fs (latest/baseline %.2fx)\n",
				rep.RestoreLatestSec, rep.RestoreOldestSec, rep.BaselineRestoreSec, rep.LatestVsBaseline)
		}
		fmt.Println()
	}
	if want(14) {
		sweep := cfg
		sweep.DataMB, sweep.AgeRounds, sweep.Seed = 24, 4, 1999
		fmt.Printf("Table 14: Dump at 4 drives by readers per shard and physical read-ahead depth (%d MB)\n", sweep.DataMB)
		fmt.Printf("%-8s %-6s %-22s %s\n", "Readers", "Depth", "Logical GB/h (CPU)", "Physical GB/h (CPU)")
		for _, rd := range [][2]int{{1, 3}, {3, 3}, {6, 3}, {3, 1}, {3, 2}, {3, 6}} {
			sweep.Readers, sweep.PipeDepth = rd[0], rd[1]
			pts, err := bench.RunScaling(ctx, sweep, []int{4})
			die(err)
			fmt.Printf("%-8d %-6d %6.1f (%3.0f%%)          %6.1f (%3.0f%%)\n",
				rd[0], rd[1], pts[0].LogicalGBph, 100*pts[0].LogicalCPU, pts[0].PhysGBph, 100*pts[0].PhysCPU)
		}
		fmt.Println()
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}
