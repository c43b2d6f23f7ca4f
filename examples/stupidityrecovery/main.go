// "Stupidity recovery" (the paper's term, §1): a user accidentally
// deletes one file. The example contrasts the two strategies' answers:
//
//  1. Logical restore pulls the single file off a dump tape directly —
//     the format is file-oriented, so restore skips everything else.
//  2. Physical backup cannot do this on the production volume ("the
//     entire file system must be recreated before the individual disk
//     blocks ... can be identified"); the §6 workaround replays the
//     image offline in memory and copies the file out.
//  3. Snapshots make both moot when the deletion is recent: the file
//     is still in yesterday's snapshot.
//
// Run with: go run ./examples/stupidityrecovery
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

func main() {
	ctx := context.Background()
	cfg := core.DefaultConfig()
	cfg.Name = "homedir"
	cfg.Simulate = true
	cfg.TapeDrives = 2
	filer, err := core.NewFiler(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}

	precious := []byte("three years of thesis notes\n")
	if _, err := filer.FS.WriteFile(ctx, "/users/pat/thesis.tex", precious, 0600); err != nil {
		log.Fatal(err)
	}
	workload.Generate(ctx, filer.FS, workload.Spec{Seed: 13, Files: 80, DirFanout: 8, MeanFileSize: 8 << 10})

	// Nightly protection: a snapshot, a logical dump and an image dump.
	if err := filer.FS.CreateSnapshot(ctx, "nightly"); err != nil {
		log.Fatal(err)
	}
	var imageTape *physical.DumpStats
	filer.Env.Spawn("nightly-backups", func(p *sim.Proc) {
		c := core.Proc(ctx, p)
		filer.LoadTape(c, 0)
		filer.LoadTape(c, 1)
		if _, err := filer.LogicalDump(c, 0, 0, "", "nightly-dump", nil); err != nil {
			log.Fatal(err)
		}
		stats, err := filer.ImageDump(c, 1, "nightly-image", "")
		if err != nil {
			log.Fatal(err)
		}
		imageTape = stats
	})
	filer.Env.Run()
	fmt.Printf("nightly backups done (image: %d blocks)\n", imageTape.BlocksDumped)

	// Monday morning: rm thesis.tex.
	if err := filer.FS.RemovePath(ctx, "/users/pat/thesis.tex"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("oops: /users/pat/thesis.tex deleted")

	// Option 1 — single-file logical restore from tape: restore runs
	// its own namei over the desiccated directory image and lays only
	// the requested file on disk.
	filer.Env.Spawn("single-file", func(p *sim.Proc) {
		c := core.Proc(ctx, p)
		filer.Tapes[0].Rewind(p)
		start := p.Now()
		stats, err := logical.Restore(c, logical.RestoreOptions{
			FS:               filer.FS,
			Source:           filer.Source(c, 0),
			Files:            []string{"users/pat/thesis.tex"},
			KernelIntegrated: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("logical single-file restore: %d restored, %d skipped on tape, took %v (virtual)\n",
			stats.FilesRestored, stats.FilesSkipped, p.Now()-start)
	})
	filer.Env.Run()
	got, err := filer.FS.ActiveView().ReadFile(ctx, "/users/pat/thesis.tex")
	if err != nil || !bytes.Equal(got, precious) {
		log.Fatalf("logical recovery failed: %v", err)
	}
	fmt.Println("option 1 (logical tape): recovered ✓")

	// Option 2 — offline extraction from the image tape (§6).
	filer.FS.RemovePath(ctx, "/users/pat/thesis.tex") // delete it again
	var extracted map[string][]byte
	filer.Env.Spawn("extract", func(p *sim.Proc) {
		c := core.Proc(ctx, p)
		filer.Tapes[1].Rewind(p)
		scratch := storage.NewMemDevice(filer.Vol.NumBlocks())
		if _, err := physical.Restore(c, physical.RestoreOptions{Vol: scratch, Source: filer.Source(c, 1)}); err != nil {
			log.Fatal(err)
		}
		var err error
		extracted, err = physical.ReadFiles(c, scratch, "/users/pat/thesis.tex")
		if err != nil {
			log.Fatal(err)
		}
	})
	filer.Env.Run()
	if !bytes.Equal(extracted["/users/pat/thesis.tex"], precious) {
		log.Fatal("image extraction returned wrong bytes")
	}
	fmt.Println("option 2 (offline image replay): recovered ✓")

	// Option 3 — the snapshot still has it: "snapshots provide much
	// more protection from accidental deletion than is provided by
	// daily incremental backups."
	sv, err := filer.FS.SnapshotView("nightly")
	if err != nil {
		log.Fatal(err)
	}
	fromSnap, err := sv.ReadFile(ctx, "/users/pat/thesis.tex")
	if err != nil || !bytes.Equal(fromSnap, precious) {
		log.Fatalf("snapshot recovery failed: %v", err)
	}
	fmt.Println("option 3 (snapshot): recovered ✓ — no tape needed at all")
}
