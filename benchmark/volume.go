package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/chunk"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/wafl"
	"repro/internal/workload"
)

type volKind int

const (
	kindLogical volKind = iota
	kindPhysical
	kindDedup
)

// Engine options are the ones internal/bench ships, recorded here
// once as workload parameters.
const (
	dumpReaders       = 3
	logicalReadAhead  = 16
	physicalReadAhead = 3
)

// volumeWL is the three workloads that dump and restore a generated
// volume: logical-4d, physical-4d and dedup-week.
type volumeWL struct {
	kind volKind
}

func (w *volumeWL) width() int {
	if w.kind == kindDedup {
		return 1
	}
	return 4
}

func (w *volumeWL) rigConfig(r *run, simulate bool, drives int) rigConfig {
	// 64 KiB mean files is internal/bench's metadata-to-data ratio.
	cfg := rigConfig{simulate: simulate, seed: r.seed, dataMB: 64, meanFile: 64 << 10, ageRounds: 4, drives: drives}
	if w.kind == kindDedup {
		// Half the issue's 24 MiB: one dump pass runs the chunker over
		// seven times the volume, and five timed reps of a 24 MiB week
		// do not fit the driver's time cap. 16 KiB files, so that the
		// smaller tree still has 768 of them and a day's 2 % churn is
		// sixteen files, not four.
		cfg = rigConfig{simulate: simulate, seed: r.seed, dataMB: 12, meanFile: 16 << 10, days: 7, drives: 1}
	}
	cfg.digest = w.kind != kindPhysical
	if r.tiny {
		cfg.dataMB = max(1, cfg.dataMB/32)
		cfg.days = min(cfg.days, 3)
	}
	return cfg
}

// streams is what a dump pass leaves behind for the restore pass and
// the accounting: per-drive stream bytes and, for dedup-week, the
// catalog and media the chunks went to.
type streams struct {
	width         int // 0: one sequential stream on drive 0
	driveBytes    []float64
	files         int // files dumped
	filesRestored int // by the latest restore pass
	blocks        int

	// physical restore target of the latest restore pass
	target *raid.Volume

	// dedup-week
	store     *catalog.MemStore
	cat       *catalog.Catalog
	media     *chunk.DriveMedia
	manifests []chunk.Manifest
	wstats    chunk.WriterStats // summed over the week
}

func (s *streams) drives() int {
	if s.width == 0 {
		return 1
	}
	return s.width
}

// storedBytes is what the dump left on media. For the tape streams it
// is every byte on the cartridges. For dedup-week it is the live chunk
// bytes the index points at plus the catalog journal that holds the
// index: RevDedup rewrites a hit onto the newest cartridge, so the
// older cartridges also hold superseded copies, which are dead bytes
// reclaimed with their volumes and not part of what the week costs.
func (s *streams) storedBytes(r *rig) int64 {
	if s.cat == nil {
		return r.tapeBytes()
	}
	_, live, _ := s.cat.ChunkStats()
	return live + int64(len(s.store.Buf))
}

// loadTapes mounts a fresh cartridge in the first n drives. Cartridge
// changes cost 90 virtual seconds each and are never inside a timed
// interval.
func loadTapes(ctx context.Context, r *rig, n int) error {
	r.eraseTapes()
	return r.procs(ctx, "load", func(c context.Context) error {
		for i := 0; i < n; i++ {
			if err := r.tapes[i].Load(sim.ProcFrom(c)); err != nil {
				return err
			}
		}
		return nil
	})
}

func rewindTapes(ctx context.Context, r *rig, n int) error {
	return r.procs(ctx, "rewind", func(c context.Context) error {
		for i := 0; i < n; i++ {
			r.tapes[i].Rewind(sim.ProcFrom(c))
		}
		return nil
	})
}

func flushTapes(c context.Context, r *rig, n int) {
	for i := 0; i < n; i++ {
		r.tapes[i].Flush(sim.ProcFrom(c))
	}
}

// passOpts is how a pass is observed: iv brackets the timed part of
// each job; tr and stages are set only on traced passes.
type passOpts struct {
	iv     interval
	tr     *tracer
	stages *stageWindows
}

// dump runs one dump pass of the workload: every snapshot of the rig,
// oldest first, each a level-0. width 0 selects the engines'
// sequential single-stream path (the traced host pass); width n fans
// one call out over n drives. iv brackets the timed part of each job.
func (w *volumeWL) dump(ctx context.Context, r *rig, width int, po passOpts) (*streams, error) {
	s := &streams{width: width}
	if err := loadTapes(ctx, r, s.drives()); err != nil {
		return nil, err
	}
	var err error
	switch w.kind {
	case kindLogical:
		err = w.dumpLogical(ctx, r, s, po)
	case kindPhysical:
		err = w.dumpPhysical(ctx, r, s, po)
	case kindDedup:
		err = w.dumpDedup(ctx, r, s, po)
	}
	if err != nil {
		return nil, err
	}
	for i := 0; i < s.drives(); i++ {
		var b int64
		if c := r.tapes[i].Loaded(); c != nil {
			b = c.Bytes()
		}
		s.driveBytes = append(s.driveBytes, float64(b))
	}
	return s, nil
}

func (w *volumeWL) dumpLogical(ctx context.Context, r *rig, s *streams, po passOpts) error {
	view, err := r.fs.SnapshotView(r.lastSnap())
	if err != nil {
		return err
	}
	po.iv.start()
	defer po.iv.stop()
	return r.procs(ctx, "ldump", func(c context.Context) error {
		defer po.tr.span("logical", "dump job")()
		opts := logical.DumpOptions{
			View: view, Level: 0, Dates: r.dates, FSID: "bench", Label: "bench",
			ReadAhead: logicalReadAhead, Stages: po.stages.recorder(),
		}
		if s.width == 0 {
			opts.Sink = po.tr.sink(&logical.DriveSink{Drive: r.tapes[0], Proc: sim.ProcFrom(c)}, "tape")
		} else {
			opts.Readers = dumpReaders
			for i := 0; i < s.width; i++ {
				opts.Sinks = append(opts.Sinks, po.tr.sink(&logical.DriveSink{Drive: r.tapes[i], Proc: sim.ProcFrom(c)}, "tape"))
			}
		}
		stats, err := logical.Dump(c, opts)
		if err != nil {
			return err
		}
		s.files = stats.FilesDumped
		flushTapes(c, r, s.drives())
		return nil
	})
}

func (w *volumeWL) dumpPhysical(ctx context.Context, r *rig, s *streams, po passOpts) error {
	po.iv.start()
	defer po.iv.stop()
	return r.procs(ctx, "idump", func(c context.Context) error {
		defer po.tr.span("physical", "dump job")()
		opts := physical.DumpOptions{
			FS: r.fs, Vol: po.tr.device(r.vol, "raid"), SnapName: r.lastSnap(), Costs: r.fc.PhysCosts,
		}
		if s.width == 0 {
			opts.Sink = po.tr.sink(&logical.DriveSink{Drive: r.tapes[0], Proc: sim.ProcFrom(c)}, "tape")
		} else {
			opts.Readers, opts.ReadAhead = dumpReaders, physicalReadAhead
			for i := 0; i < s.width; i++ {
				opts.Sinks = append(opts.Sinks, po.tr.sink(&logical.DriveSink{Drive: r.tapes[i], Proc: sim.ProcFrom(c)}, "tape"))
			}
		}
		stats, err := physical.Dump(c, opts)
		if err != nil {
			return err
		}
		s.blocks = stats.BlocksDumped
		flushTapes(c, r, s.drives())
		return nil
	})
}

// dumpDedup is the week: one level-0 logical dump per daily snapshot
// through a RevDedup chunk.Writer onto the tape drive, each day on its
// own cartridge, the chunk index and manifests in the catalog journal.
func (w *volumeWL) dumpDedup(ctx context.Context, r *rig, s *streams, po passOpts) error {
	s.store = &catalog.MemStore{}
	cat, err := catalog.Open(po.tr.store(s.store))
	if err != nil {
		return err
	}
	s.cat = cat
	s.media = chunk.NewDriveMedia(r.tapes[0], nil)
	for day, snap := range r.snaps {
		view, err := r.fs.SnapshotView(snap)
		if err != nil {
			return err
		}
		if day > 0 { // day 1's cartridge is the one loadTapes mounted
			if err := r.procs(ctx, "nextvol", func(c context.Context) error {
				s.media.Proc = sim.ProcFrom(c)
				return s.media.NextVolume()
			}); err != nil {
				return err
			}
		}
		po.iv.start()
		err = r.procs(ctx, snap, func(c context.Context) error {
			defer po.tr.span("logical", "dump job")()
			s.media.Proc = sim.ProcFrom(c)
			cw, err := chunk.NewWriter(chunk.WriterOptions{
				Index: po.tr.index(cat), Media: po.tr.media(s.media), Reverse: true,
				Ctx: c, Engine: "logical",
			})
			if err != nil {
				return err
			}
			sink := po.tr.chunkSink(cw)
			stats, err := logical.Dump(c, logical.DumpOptions{
				View: view, Label: snap, FSID: "bench", ReadAhead: logicalReadAhead,
				Sink: sink, Stages: po.stages.recorder(),
			})
			if err != nil {
				return err
			}
			m, err := sink.Close()
			if err != nil {
				return err
			}
			id, err := cat.AppendDumpSet(catalog.DumpSet{
				Engine: catalog.Logical, FSID: "bench", Snap: snap,
				Date: int64(day + 1), Bytes: m.RawBytes,
				Media: []catalog.MediaRef{{Volume: r.tapes[0].Loaded().Label}},
			})
			if err != nil {
				return err
			}
			if err := cat.AppendManifest(id, m); err != nil {
				return err
			}
			flushTapes(c, r, 1)
			s.files += stats.FilesDumped
			s.manifests = append(s.manifests, m)
			ws := cw.Stats()
			s.wstats.Chunks += ws.Chunks
			s.wstats.Hits += ws.Hits
			s.wstats.Misses += ws.Misses
			s.wstats.Rewrites += ws.Rewrites
			s.wstats.RawBytes += ws.RawBytes
			s.wstats.StoredBytes += ws.StoredBytes
			s.wstats.CompressedChunks += ws.CompressedChunks
			s.wstats.RawChunks += ws.RawChunks
			return nil
		})
		po.iv.stop()
		if err != nil {
			return fmt.Errorf("day %d: %w", day+1, err)
		}
	}
	return nil
}

// restore runs one restore pass from s: the full 4-stream restore onto
// a wiped (logical) or raw (physical) volume, or the restore of the
// week's newest set through chunk.Reader.
func (w *volumeWL) restore(ctx context.Context, r *rig, s *streams, po passOpts) error {
	if w.kind == kindPhysical {
		return w.restorePhysical(ctx, r, s, po)
	}
	if err := r.wipe(ctx); err != nil {
		return err
	}
	if w.kind == kindDedup {
		po.iv.start()
		defer po.iv.stop()
		return r.procs(ctx, "drest", func(c context.Context) error {
			defer po.tr.span("logical", "restore job")()
			s.media.Proc = sim.ProcFrom(c)
			src := chunk.NewReader(po.tr.index(s.cat), po.tr.media(s.media), s.manifests[len(s.manifests)-1])
			st, err := logical.Restore(c, logical.RestoreOptions{
				FS: r.fs, Source: po.tr.source(src, "chunk"), KernelIntegrated: true, Stages: po.stages.recorder(),
			})
			if err == nil {
				s.filesRestored = st.FilesRestored
			}
			return err
		})
	}
	if err := rewindTapes(ctx, r, s.drives()); err != nil {
		return err
	}
	s.filesRestored = 0
	one := func(i int) func(c context.Context) error {
		return func(c context.Context) error {
			defer po.tr.span("logical", "restore job")()
			src := logical.NewDriveSource(r.tapes[i], sim.ProcFrom(c), 1)
			st, err := logical.Restore(c, logical.RestoreOptions{
				FS: r.fs, Source: po.tr.source(src, "tape"), KernelIntegrated: true, Stages: po.stages.recorder(),
			})
			if err == nil {
				s.filesRestored += st.FilesRestored
			}
			return err
		}
	}
	po.iv.start()
	defer po.iv.stop()
	// Every shard stream carries the full directory set, so stream 0
	// goes first alone and builds the skeleton; its siblings' file
	// slices are disjoint and apply concurrently.
	if err := r.procs(ctx, "lrest", one(0)); err != nil {
		return err
	}
	var rest []func(c context.Context) error
	for i := 1; i < s.drives(); i++ {
		rest = append(rest, one(i))
	}
	return r.procs(ctx, "lrestn", rest...)
}

func (w *volumeWL) restorePhysical(ctx context.Context, r *rig, s *streams, po passOpts) error {
	target, err := r.newVolume("bench/target")
	if err != nil {
		return err
	}
	target.RegisterMetrics(r.reg)
	s.target = target
	if err := rewindTapes(ctx, r, s.drives()); err != nil {
		return err
	}
	po.iv.start()
	defer po.iv.stop()
	return r.procs(ctx, "irest", func(c context.Context) error {
		defer po.tr.span("physical", "restore job")()
		opts := physical.RestoreOptions{Vol: po.tr.device(target, "raid"), Costs: r.fc.PhysCosts}
		if s.width == 0 {
			opts.Source = po.tr.source(logical.NewDriveSource(r.tapes[0], sim.ProcFrom(c), 1), "tape")
		} else {
			for i := 0; i < s.width; i++ {
				opts.Sources = append(opts.Sources, po.tr.source(logical.NewDriveSource(r.tapes[i], sim.ProcFrom(c), 1), "tape"))
			}
		}
		if _, err := physical.Restore(c, opts); err != nil {
			return err
		}
		target.Flush(c)
		return nil
	})
}

// verify checks the latest restore against the source and returns
// every mismatch. Logical and dedup restores must reproduce the
// newest snapshot's tree digest; a physical restore must hold every
// block of the snapshot's world byte for byte and, when full is set,
// mount and pass wafl's Check. (Check walks the whole tree and costs
// more than the restore it checks, so the host restore phase runs it
// on the last restore of each rep; the block compare runs on all.)
func (w *volumeWL) verify(ctx context.Context, r *rig, s *streams, full bool) ([]string, error) {
	if w.kind != kindPhysical {
		got, err := workload.TreeDigest(ctx, r.fs.ActiveView(), "/")
		if err != nil {
			return nil, err
		}
		return workload.DiffDigests(r.want, got), nil
	}
	words, err := r.snapWords(ctx)
	if err != nil {
		return nil, err
	}
	var diffs []string
	const maxRun = 512
	a, b := make([]byte, maxRun*storage.BlockSize), make([]byte, maxRun*storage.BlockSize)
	// The first FsinfoReserved blocks hold the root, which restore
	// composes for the snapshot and so differs from the live one.
	for bno := wafl.FsinfoReserved; bno < len(words); {
		if words[bno] == 0 { // not in the snapshot's world: never dumped
			bno++
			continue
		}
		n := 1
		for n < maxRun && bno+n < len(words) && words[bno+n] != 0 {
			n++
		}
		if err := r.vol.ReadRun(ctx, bno, n, a[:n*storage.BlockSize]); err != nil {
			return nil, err
		}
		if err := s.target.ReadRun(ctx, bno, n, b[:n*storage.BlockSize]); err != nil {
			return nil, err
		}
		if !bytes.Equal(a[:n*storage.BlockSize], b[:n*storage.BlockSize]) {
			diffs = append(diffs, fmt.Sprintf("blocks %d..%d differ after physical restore", bno, bno+n-1))
		}
		bno += n
	}
	if !full {
		return diffs, nil
	}
	restored, err := wafl.Mount(ctx, s.target, nil, wafl.Options{})
	if err != nil {
		return append(diffs, fmt.Sprintf("mounting restored volume: %v", err)), nil
	}
	problems, err := restored.Check(ctx)
	if err != nil {
		return nil, err
	}
	return append(diffs, problems...), nil
}

// setupSamples is how many times a gated run sets its inputs up:
// setup_s is their median, as the driver's contract asks. One set-up is
// a second or less of first-touch page faults and allocator state, and
// single samples of the same build spread by a third. A variable only
// so the smoke tests can lower it.
var setupSamples = 5

// endToEnd is the gated protocol for the three volume workloads:
// set-up, the virtual pass, the two host phases.
func (w *volumeWL) endToEnd(r *run) error {
	var setups []float64
	build := func(simulate bool) (rg *rig, err error) {
		secs, err := r.k.setupSeconds(func() (time.Duration, error) {
			if rg, err = buildRig(r.ctx, w.rigConfig(r, simulate, w.width())); err != nil {
				return 0, fmt.Errorf("set-up: %w", err)
			}
			return rg.built, nil
		})
		setups = append(setups, secs)
		return rg, err
	}
	virt, err := build(true)
	if err != nil {
		return err
	}
	if err := w.virtualMetrics(r, virt); err != nil {
		return err
	}
	var host *rig
	for host == nil || len(setups) < setupSamples {
		if host, err = build(false); err != nil {
			return err
		}
	}
	r.set("setup_s", median(setups))
	r.note("setup_s", fmt.Sprintf("median of %d set-ups, scaled to a %d MiB/s kernel", len(setups), nominalKernel))
	dps, rps, err := w.hostPhases(r, host)
	if err != nil {
		return err
	}
	r.setHostMetrics(dps, rps)
	return nil
}

// virtualMetrics is the virtual pass: what the modelled filer would
// take to dump and restore rg's volume.
func (w *volumeWL) virtualMetrics(r *run, rg *rig) error {
	ctx, width := r.ctx, w.width()
	vd, vr := &virtSpan{r: rg}, &virtSpan{r: rg}
	s, err := w.dump(ctx, rg, width, passOpts{iv: vd})
	if !r.op("virtual dump", err) {
		return err
	}
	err = w.restore(ctx, rg, s, passOpts{iv: vr})
	if !r.op("virtual restore", err) {
		return err
	}
	if err := r.verify("virtual restore", func() ([]string, error) { return w.verify(ctx, rg, s, true) }); err != nil {
		return err
	}
	r.set("dump_virt_gbph", gbph(rg.totalUserBytes(), vd.total))
	r.set("restore_virt_gbph", gbph(rg.lastUserBytes(), vr.total))
	r.set("stored_per_user_byte", float64(s.storedBytes(rg))/float64(rg.totalUserBytes()))
	// One dump job and no tenants: there is no percentile to take and
	// nobody to be fair to. Per-drive shard balance is the per-layer
	// series pipeline.shard_skew.
	r.placeholder("job_p50_stretch", "job_p90_stretch", "fairness_jain")
	return nil
}

// hostPhases is the host-pass protocol on rg: the dump phase, then the
// restore phase from the streams the last dump pass left on the tapes.
// Every restore pass wipes (outside the interval), restores and
// verifies.
func (w *volumeWL) hostPhases(r *run, rg *rig) (dps, rps *phaseStats, err error) {
	ctx, width := r.ctx, w.width()
	budget := r.phaseBudget()
	var s *streams
	dps, err = hostPhase(r.k, budget, func(m *meter) (int64, error) {
		var err error
		s, err = w.dump(ctx, rg, width, passOpts{iv: m})
		r.op("host dump", err)
		return rg.totalUserBytes(), err
	}, nil)
	if err != nil {
		return nil, nil, err
	}
	// The tree digest after every logical or dedup restore pass is the
	// full check. A physical pass gets the block compare; mounting the
	// target and walking it costs more than the restore and runs once
	// per rep.
	var check func() error
	if w.kind == kindPhysical {
		check = func() error {
			return r.verify("host restore check", func() ([]string, error) { return w.verify(ctx, rg, s, true) })
		}
	}
	rps, err = hostPhase(r.k, budget, func(m *meter) (int64, error) {
		err := w.restore(ctx, rg, s, passOpts{iv: m})
		if !r.op("host restore", err) {
			return 0, err
		}
		return rg.lastUserBytes(), r.verify("host restore", func() ([]string, error) { return w.verify(ctx, rg, s, false) })
	}, check)
	return dps, rps, err
}
