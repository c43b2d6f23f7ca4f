package bench

import (
	"context"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/chunk"
	"repro/internal/logical"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// ChunkDayRow is one scheduled full in the dedup-week experiment.
type ChunkDayRow struct {
	Day        int
	LogicalMB  float64
	AddedMB    float64 // unique bytes this full stored
	Hits       int64
	Misses     int64
	Rewrites   int64
	DumpSimSec float64
}

// ChunkWeekReport is the dedup-week outcome: a scheduled week of
// level-0 fulls over a mostly-unchanged volume, plus the restore
// tradeoff that motivates reverse dedup.
type ChunkWeekReport struct {
	Days         []ChunkDayRow
	LogicalBytes int64
	UniqueBytes  int64 // live chunk-store bytes after the week
	DedupRatio   float64

	RestoreLatestSec   float64
	RestoreOldestSec   float64
	BaselineRestoreSec float64 // non-dedup streaming restore
	LatestVsBaseline   float64 // >1 = slower than streaming
}

// RunChunkWeek schedules a week of daily level-0 logical fulls through
// the chunk layer onto a simulated tape library, with light churn
// between days. Drive 0 carries the dedup'd chunk stream; drive 1
// takes one conventional (non-dedup) full of the final day as the
// streaming-restore baseline. All times are simulated tape/CPU time.
func RunChunkWeek(ctx context.Context, cfg Config, reverse bool) (*ChunkWeekReport, error) {
	f, err := buildFiler(ctx, cfg, "chunkweek", 2, nil, nil)
	if err != nil {
		return nil, err
	}
	const mean = 64 << 10
	files := cfg.DataMB << 20 / mean
	paths, err := workload.Generate(ctx, f.FS, workload.Spec{
		Seed: cfg.Seed, Files: files, DirFanout: 12, MeanFileSize: mean,
	})
	if err != nil {
		return nil, err
	}
	if err := f.FS.CP(ctx); err != nil {
		return nil, err
	}

	cat, err := catalog.Open(&catalog.MemStore{})
	if err != nil {
		return nil, err
	}
	media := chunk.NewDriveMedia(f.Tapes[0], nil)
	rep := &ChunkWeekReport{}

	manifests := make([]chunk.Manifest, 0, 7)
	for day := 1; day <= 7; day++ {
		if day > 1 {
			// Mostly-unchanged volume: ~2% of files churn per day.
			if paths, err = workload.Age(ctx, f.FS, paths, workload.AgeSpec{
				Seed: cfg.Seed + int64(day), Rounds: 1,
				ChurnPerRound: 1 + files/50, MeanFileSize: mean,
			}); err != nil {
				return nil, err
			}
			if err := f.FS.CP(ctx); err != nil {
				return nil, err
			}
		}
		snap := fmt.Sprintf("day%d", day)
		if err := f.FS.CreateSnapshot(ctx, snap); err != nil {
			return nil, err
		}
		var dumpErr error
		f.Env.Spawn(snap, func(p *sim.Proc) {
			c := sim.WithProc(ctx, p)
			media.Proc = p
			// Each full gets its own cartridge, as a scheduler would
			// rotate media; restore-of-latest then mounts one volume and
			// streams instead of spacing over older sets.
			if dumpErr = media.NextVolume(); dumpErr != nil {
				return
			}
			start := p.Now()
			view, err := f.FS.SnapshotView(snap)
			if err != nil {
				dumpErr = err
				return
			}
			w, err := chunk.NewWriter(chunk.WriterOptions{
				Index: cat, Media: media, Reverse: reverse,
				Ctx: c, Engine: "logical",
			})
			if err != nil {
				dumpErr = err
				return
			}
			if _, err := logical.Dump(c, logical.DumpOptions{
				View: view, Label: snap, FSID: "chunkweek",
				ReadAhead: 16, Sink: w,
			}); err != nil {
				dumpErr = err
				return
			}
			m, err := w.Close()
			if err != nil {
				dumpErr = err
				return
			}
			id, err := cat.AppendDumpSet(catalog.DumpSet{
				Engine: catalog.Logical, FSID: "chunkweek", Snap: snap,
				Date: int64(day), Bytes: m.RawBytes,
				Media: []catalog.MediaRef{{Volume: f.Tapes[0].Loaded().Label}},
			})
			if err != nil {
				dumpErr = err
				return
			}
			if dumpErr = cat.AppendManifest(id, m); dumpErr != nil {
				return
			}
			ws := w.Stats()
			manifests = append(manifests, m)
			rep.Days = append(rep.Days, ChunkDayRow{
				Day:        day,
				LogicalMB:  float64(m.RawBytes) / (1 << 20),
				AddedMB:    float64(ws.StoredBytes) / (1 << 20),
				Hits:       ws.Hits,
				Misses:     ws.Misses,
				Rewrites:   ws.Rewrites,
				DumpSimSec: (p.Now() - start).Seconds(),
			})
			rep.LogicalBytes += m.RawBytes
		})
		f.Env.Run()
		if dumpErr != nil {
			return nil, fmt.Errorf("bench: dedup week day %d: %w", day, dumpErr)
		}
	}
	_, rep.UniqueBytes, _ = cat.ChunkStats()
	if rep.UniqueBytes > 0 {
		rep.DedupRatio = float64(rep.LogicalBytes) / float64(rep.UniqueBytes)
	}

	// Restore-of-latest vs restore-of-oldest through the chunk layer.
	restoreSimSec := func(name string, m chunk.Manifest) (float64, error) {
		var sec float64
		var rerr error
		f.Env.Spawn(name, func(p *sim.Proc) {
			c := sim.WithProc(ctx, p)
			media.Proc = p
			dst, err := wafl.Mkfs(c, storage.NewMemDevice(f.Vol.NumBlocks()), nil, wafl.Options{})
			if err != nil {
				rerr = err
				return
			}
			start := p.Now()
			if _, err := logical.Restore(c, logical.RestoreOptions{
				FS: dst, Source: chunk.NewReader(cat, media, m),
				KernelIntegrated: true,
			}); err != nil {
				rerr = err
				return
			}
			sec = (p.Now() - start).Seconds()
		})
		f.Env.Run()
		return sec, rerr
	}
	if rep.RestoreLatestSec, err = restoreSimSec("restore-latest", manifests[len(manifests)-1]); err != nil {
		return nil, err
	}
	if rep.RestoreOldestSec, err = restoreSimSec("restore-oldest", manifests[0]); err != nil {
		return nil, err
	}

	// Non-dedup baseline: one conventional full of the final day to
	// drive 1, restored as a straight stream.
	var baseErr error
	f.Env.Spawn("baseline", func(p *sim.Proc) {
		c := sim.WithProc(ctx, p)
		if baseErr = f.LoadTape(c, 1); baseErr != nil {
			return
		}
		view, err := f.FS.SnapshotView("day7")
		if err != nil {
			baseErr = err
			return
		}
		if _, err := logical.Dump(c, logical.DumpOptions{
			View: view, Label: "day7-raw", FSID: "chunkweek",
			ReadAhead: 16, Sink: f.Sink(c, 1),
		}); err != nil {
			baseErr = err
			return
		}
		f.Tapes[1].Flush(p)
		dst, err := wafl.Mkfs(c, storage.NewMemDevice(f.Vol.NumBlocks()), nil, wafl.Options{})
		if err != nil {
			baseErr = err
			return
		}
		f.Tapes[1].Rewind(p)
		start := p.Now()
		if _, err := logical.Restore(c, logical.RestoreOptions{
			FS: dst, Source: f.Source(c, 1), KernelIntegrated: true,
		}); err != nil {
			baseErr = err
			return
		}
		rep.BaselineRestoreSec = (p.Now() - start).Seconds()
	})
	f.Env.Run()
	if baseErr != nil {
		return nil, fmt.Errorf("bench: dedup week baseline: %w", baseErr)
	}
	if rep.BaselineRestoreSec > 0 {
		rep.LatestVsBaseline = rep.RestoreLatestSec / rep.BaselineRestoreSec
	}
	return rep, nil
}
