package chaos

import (
	"fmt"
	"repro/internal/catalog"
	"testing"
)

// TestChunkCrashMidDump: crash mid-dedup-dump across seeds, both
// engines, forward and reverse mode. After recovery the refcounts are
// consistent, the redump completes via hits against the crash's
// survivors, the sweep erases only zero-ref orphans, and every set
// restores byte-identical. The invariant checks themselves live in
// RunChunkCrash — a violation is an error, not just a report field.
func TestChunkCrashMidDump(t *testing.T) {
	for _, engine := range []catalog.Engine{catalog.Logical, catalog.Image} {
		for _, reverse := range []bool{false, true} {
			for seed := int64(1); seed <= int64(seedCount()); seed++ {
				name := fmt.Sprintf("%s/reverse=%v/seed=%d", engine, reverse, seed)
				t.Run(name, func(t *testing.T) {
					rep, err := RunChunkCrash(ctx, ChunkScenario{
						Dataset: Dataset{Seed: seed, Engine: engine}, Reverse: reverse,
					})
					if err != nil {
						t.Fatal(err)
					}
					if !rep.Identical {
						t.Fatal("restore after crash+recovery not byte-identical")
					}
					if rep.TornBytes == 0 {
						t.Fatal("torn journal tail not observed")
					}
					// Forward mode references survivors (hits); reverse mode
					// rewrites them to current media instead.
					if rep.RedumpHits+rep.RedumpRewrites == 0 {
						t.Fatal("redump never engaged the crash's surviving chunks")
					}
					if reverse && rep.RedumpRewrites == 0 {
						t.Fatal("reverse redump performed no rewrites")
					}
				})
			}
		}
	}
}
