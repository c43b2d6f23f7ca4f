package bench

import (
	"context"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/chunk"
	"repro/internal/logical"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/stream"
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
	meters := metersFor(f)
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
		var ws chunk.WriterStats
		op, err := measure(ctx, meters, "dedup week "+snap, func(c context.Context, rec *Recorder) (int64, error) {
			media.Proc = sim.ProcFrom(c)
			// Each full gets its own cartridge, as a scheduler would
			// rotate media; restore-of-latest then mounts one volume and
			// streams instead of spacing over older sets.
			if err := media.NextVolume(); err != nil {
				return 0, err
			}
			rec.Begin(snap)
			view, err := f.FS.SnapshotView(snap)
			if err != nil {
				return 0, err
			}
			w, err := chunk.NewWriter(chunk.WriterOptions{
				Index: cat, Media: media, Reverse: reverse,
				Ctx: c, Engine: "logical",
			})
			if err != nil {
				return 0, err
			}
			if _, err := (logicalDump{label: snap}).to(c, f, view, w); err != nil {
				return 0, err
			}
			m, err := w.Close()
			if err != nil {
				return 0, err
			}
			id, err := cat.AppendDumpSet(catalog.DumpSet{
				Engine: catalog.Logical, FSID: "chunkweek", Snap: snap,
				Date: int64(day), Bytes: m.RawBytes,
				Media: []catalog.MediaRef{{Volume: f.Tapes[0].Loaded().Label}},
			})
			if err != nil {
				return 0, err
			}
			if err := cat.AppendManifest(id, m); err != nil {
				return 0, err
			}
			ws = w.Stats()
			manifests = append(manifests, m)
			return m.RawBytes, nil
		})
		if err != nil {
			return nil, err
		}
		rep.Days = append(rep.Days, ChunkDayRow{
			Day:        day,
			LogicalMB:  float64(op.Bytes) / (1 << 20),
			AddedMB:    float64(ws.StoredBytes) / (1 << 20),
			Hits:       ws.Hits,
			Misses:     ws.Misses,
			Rewrites:   ws.Rewrites,
			DumpSimSec: op.Elapsed.Seconds(),
		})
		rep.LogicalBytes += op.Bytes
	}
	_, rep.UniqueBytes, _ = cat.ChunkStats()
	if rep.UniqueBytes > 0 {
		rep.DedupRatio = float64(rep.LogicalBytes) / float64(rep.UniqueBytes)
	}

	// restoreSec times a logical restore, onto a fresh in-memory
	// filesystem, of the stream that source opens; what source itself
	// does is outside the timed stage.
	restoreSec := func(name string, source func(c context.Context) (stream.Source, error)) (float64, error) {
		op, err := measure(ctx, meters, name, func(c context.Context, rec *Recorder) (int64, error) {
			media.Proc = sim.ProcFrom(c)
			src, err := source(c)
			if err != nil {
				return 0, err
			}
			dst, err := wafl.Mkfs(c, storage.NewMemDevice(f.Vol.NumBlocks()), nil, wafl.Options{})
			if err != nil {
				return 0, err
			}
			rec.Begin(name)
			stats, err := logical.Restore(c, logical.RestoreOptions{
				FS: dst, Source: src, KernelIntegrated: true,
			})
			if err != nil {
				return 0, err
			}
			return stats.BytesRead, nil
		})
		return op.Elapsed.Seconds(), err
	}
	// Restore-of-latest vs restore-of-oldest through the chunk layer.
	fromChunks := func(m chunk.Manifest) func(context.Context) (stream.Source, error) {
		return func(context.Context) (stream.Source, error) { return chunk.NewReader(cat, media, m), nil }
	}
	if rep.RestoreLatestSec, err = restoreSec("dedup week restore-latest", fromChunks(manifests[len(manifests)-1])); err != nil {
		return nil, err
	}
	if rep.RestoreOldestSec, err = restoreSec("dedup week restore-oldest", fromChunks(manifests[0])); err != nil {
		return nil, err
	}

	// Non-dedup baseline: one conventional full of the final day to
	// drive 1, restored as a straight stream.
	rep.BaselineRestoreSec, err = restoreSec("dedup week baseline", func(c context.Context) (stream.Source, error) {
		if err := f.LoadTape(c, 1); err != nil {
			return nil, err
		}
		view, err := f.FS.SnapshotView("day7")
		if err != nil {
			return nil, err
		}
		if _, err := (logicalDump{}).toTape(c, f, view, 1, 1); err != nil {
			return nil, err
		}
		f.Tapes[1].Rewind(sim.ProcFrom(c))
		return f.Source(c, 1), nil
	})
	if err != nil {
		return nil, err
	}
	if rep.BaselineRestoreSec > 0 {
		rep.LatestVsBaseline = rep.RestoreLatestSec / rep.BaselineRestoreSec
	}
	return rep, nil
}
