package chaos

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/chunk"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/wafl"
)

// ChunkScenario crashes a dedup-encoded dump mid-stream: the chunk
// media dies partway through day two's full, the catalog journal is
// torn mid-frame, and the rig recovers and redumps. The invariants:
//
//   - recovery leaves refcounts consistent — every chunk a surviving
//     manifest names is still indexed;
//   - the sweep after recovery erases only zero-ref chunks (the
//     crashed dump's orphans), never one a live manifest references;
//   - the redump completes (cheaply, via hits against the survivors)
//     and every set restores byte-identical through the chunk layer.
type ChunkScenario struct {
	Dataset
	Reverse bool // day-two dumps in reverse (RevDedup) mode
	// FailAfter is the media append the crash lands on, counted from
	// the start of the day-two dump; 0 derives one from Seed among the
	// appends an uninterrupted day-two dump makes after its first
	// journaled container and before Close.
	FailAfter int
}

// ChunkReport is the outcome of a ChunkScenario.
type ChunkReport struct {
	Engine         catalog.Engine
	Seed           int64
	TornBytes      int64 // catalog journal bytes lost to the torn tail
	OrphansSwept   int   // zero-ref chunks the post-recovery sweep erased
	RedumpHits     int64 // dedup hits the redump scored against survivors
	RedumpRewrites int64 // reverse-mode rewrites of surviving chunks
	Identical      bool  // every surviving set restored byte-identical
	StoredBytes    int64 // live chunk bytes after redump + sweep
	LogicalBytes   int64 // raw stream bytes across both sets
	ManifestsLive  int
}

// RunChunkCrash executes one scenario. An error means the scenario
// could not be evaluated; invariant violations also surface as errors
// (they are hard failures, not report fields — except Identical, which
// callers assert).
func RunChunkCrash(ctx context.Context, s ChunkScenario) (*ChunkReport, error) {
	s.defaults(24)
	rep := &ChunkReport{Engine: s.Engine, Seed: s.Seed}

	// The source is frozen as day one.
	src, err := newSource(ctx, s.Dataset, storage.NewMemDevice(8192), wafl.Options{})
	if err != nil {
		return nil, err
	}

	store := &catalog.MemStore{}
	cat, err := catalog.Open(store)
	if err != nil {
		return nil, err
	}
	media := chunk.NewMemMedia("m0")

	// Day one: a clean full, manifest journaled with the set.
	id1, m1, _, err := dedupDump(ctx, s, src, 100, cat, media, false)
	if err != nil {
		return nil, fmt.Errorf("chaos: day-one dump: %w", err)
	}
	rep.LogicalBytes += m1.RawBytes

	// Mutate a handful of files, freeze day two.
	day1 := *src
	rng := rand.New(rand.NewSource(s.Seed*31 + 7))
	for i := 0; i < 1+len(src.paths)/8; i++ {
		p := src.paths[rng.Intn(len(src.paths))]
		buf := make([]byte, 4<<10)
		rng.Read(buf)
		if _, err := src.fs.WriteFile(ctx, p, buf, 0644); err != nil {
			return nil, err
		}
	}
	if err := src.freeze(ctx, "day2"); err != nil {
		return nil, err
	}

	// Day two, take one: the media dies mid-dump. The writer is
	// abandoned — no Close, no manifest — exactly a crash.
	failAfter := s.FailAfter
	if failAfter <= 0 {
		synced, total, err := appendPoints(ctx, s, src, store)
		if err != nil {
			return nil, err
		}
		// The last append is Close's seal, after the dump itself.
		if total-1 <= synced {
			return nil, fmt.Errorf("chaos: day two appends nothing mid-dump after its first journaled container (%d appends)", total)
		}
		failAfter = synced + 1 + rng.Intn(total-1-synced)
	}
	media.FailAfter(failAfter)
	if _, _, _, err := dedupDump(ctx, s, src, 200, cat, media, s.Reverse); err == nil {
		return nil, fmt.Errorf("chaos: injected media failure never surfaced")
	}
	media.FailAfter(0)

	// The crash also tears the catalog journal mid-frame: half of a
	// would-be record follows the last durable frame.
	store.Buf = append(store.Buf, []byte("CAT1\xee\x00\x00\x00half-a-frame")...)

	// Recovery: reopen the journal.
	cat2, err := catalog.Open(store)
	if err != nil {
		return nil, fmt.Errorf("chaos: catalog recovery: %w", err)
	}
	rep.TornBytes = cat2.TornBytes

	// Invariant: every chunk the surviving manifest names is indexed.
	m1r, ok := cat2.Manifest(id1)
	if !ok {
		return nil, fmt.Errorf("chaos: day-one manifest lost in recovery")
	}
	refs := cat2.ChunkRefcounts()
	for _, r := range m1r.Refs {
		if refs[r.Hash] < 1 {
			return nil, fmt.Errorf("chaos: recovered refcounts inconsistent: live ref %s counts %d", r.Hash, refs[r.Hash])
		}
	}

	// Day two, take two: redump on the recovered catalog. Survivors of
	// the crashed attempt are committed index entries with intact media
	// bytes, so the redump dedups against them.
	_, m2, ws, err := dedupDump(ctx, s, src, 200, cat2, media, s.Reverse)
	if err != nil {
		return nil, fmt.Errorf("chaos: redump after recovery: %w", err)
	}
	rep.RedumpHits = ws.Hits
	rep.RedumpRewrites = ws.Rewrites
	rep.LogicalBytes += m2.RawBytes

	// Sweep the crashed attempt's orphans. Invariant: no victim is
	// referenced by a live manifest.
	live := make(map[chunk.Hash]bool)
	for _, r := range m1r.Refs {
		live[r.Hash] = true
	}
	for _, r := range m2.Refs {
		live[r.Hash] = true
	}
	swept, err := cat2.SweepChunks(func(e chunk.Entry) error { return media.Erase(e) })
	if err != nil {
		return nil, fmt.Errorf("chaos: sweep: %w", err)
	}
	for _, v := range swept {
		if live[v.Hash] {
			return nil, fmt.Errorf("chaos: sweep erased referenced chunk %s", v.Hash)
		}
	}
	rep.OrphansSwept = len(swept)
	_, rep.StoredBytes, _ = cat2.ChunkStats()
	rep.ManifestsLive = 2

	// Both sets must restore byte-identical through the chunk layer.
	rep.Identical = true
	for _, day := range []struct {
		src *source
		m   chunk.Manifest
	}{{&day1, m1r}, {src, m2}} {
		diffs, err := day.src.restoreDiff(ctx, s.Engine, []stream.Source{chunk.NewReader(cat2, media, day.m)})
		if err != nil {
			return nil, fmt.Errorf("chaos: restoring %s: %w", day.src.snap, err)
		}
		if len(diffs) > 0 {
			rep.Identical = false
		}
	}
	return rep, nil
}

// appendPoints runs day two's dump uninterrupted on a copy of the
// journal in store and fresh media, and returns how many media appends
// it had made when it first journaled chunk entries, and in all. The
// crashed dump makes the same appends up to its crash.
func appendPoints(ctx context.Context, s ChunkScenario, src *source, store *catalog.MemStore) (synced, total int, err error) {
	cat, err := catalog.Open(&catalog.MemStore{Buf: bytes.Clone(store.Buf)})
	if err != nil {
		return 0, 0, err
	}
	media := chunk.NewMemMedia("m0")
	probe := &commitProbe{Index: cat, media: media}
	w, err := chunk.NewWriter(chunk.WriterOptions{Index: probe, Media: media, Reverse: s.Reverse, Ctx: ctx, Engine: s.Engine.String()})
	if err != nil {
		return 0, 0, err
	}
	if err := src.dump(s.Engine, perEngine(0, s.Engine, 4, 16), 0).To(ctx, w); err != nil {
		return 0, 0, fmt.Errorf("chaos: day two's uninterrupted dump: %w", err)
	}
	if _, err := w.Close(); err != nil {
		return 0, 0, err
	}
	return probe.first, media.Appends(), nil
}

// commitProbe notes how many appends media had made at the first
// CommitChunks through it.
type commitProbe struct {
	chunk.Index
	media *chunk.MemMedia
	first int
}

func (p *commitProbe) CommitChunks(es []chunk.Entry) error {
	if p.first == 0 {
		p.first = p.media.Appends()
	}
	return p.Index.CommitChunks(es)
}

// dedupDump runs one dump of the frozen snapshot through a fresh
// chunk.Writer into (cat, media) and lands the set with its manifest,
// read back through the chunk layer, returning the set id, the manifest
// and the writer's stats. A failed dump abandons the writer — no Close,
// no manifest — exactly a crash.
func dedupDump(ctx context.Context, s ChunkScenario, src *source, date int64, cat *catalog.Catalog, media chunk.Media, reverse bool) (uint64, chunk.Manifest, chunk.WriterStats, error) {
	w, err := chunk.NewWriter(chunk.WriterOptions{
		Index: cat, Media: media, Reverse: reverse,
		Ctx: ctx, Engine: s.Engine.String(),
	})
	if err != nil {
		return 0, chunk.Manifest{}, chunk.WriterStats{}, err
	}
	job := src.dump(s.Engine, perEngine(0, s.Engine, 4, 16), 0)
	if err := job.To(ctx, w); err != nil {
		return 0, chunk.Manifest{}, w.Stats(), err
	}
	m, err := w.Close()
	if err != nil {
		return 0, m, w.Stats(), err
	}
	ds := job.Set()
	ds.FSID, ds.Snap, ds.Date, ds.Bytes = "chaos", src.snap, date, m.RawBytes
	ds.Media = []catalog.MediaRef{{Volume: "m0"}}
	id, damage, err := engine.Land(ctx, cat, ds, &m, func(context.Context, catalog.DumpSet, func(string, int)) ([]stream.Source, error) {
		return []stream.Source{chunk.NewReader(cat, media, m)}, nil
	})
	if err == nil && damage != "" {
		err = fmt.Errorf("chaos: set %d landed damaged: %s", id, damage)
	}
	return id, m, w.Stats(), err
}
