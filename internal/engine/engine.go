// Package engine is the one place above the two dump engines that
// knows there are two. The paper holds everything constant except the
// engine — same filer, same tapes, same job — and so does the code:
// callers build one engine's DumpOptions, wrap them in a Dump, and from
// there on every job (dump, resume, landing in the catalog, set
// restore, plan execution, stream verification) is spelled once, here.
//
// The rule the resume and restore halves share: every attempt's stream
// belongs to the set. A failed attempt leaves a torn stream and a
// checkpoint (zero progress included); the next attempt continues from
// the checkpoint on a fresh stream; restore applies the streams in
// order, every one but the last with the engine's salvage semantics. A
// stream torn before anything durable salvages to nothing, so no caller
// decides which streams to keep.
package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/dumpfmt"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/wafl"
)

// Dump is a re-runnable dump job of either engine: that engine's
// DumpOptions (Sink, Sinks and Resume are the job's to set) plus the
// outcome of the last attempt.
type Dump struct {
	lg *logical.DumpOptions
	ph *physical.DumpOptions
	// LogicalStats or ImageStats is the last attempt's full outcome, for
	// callers that name their engine; nil before the first attempt.
	LogicalStats *logical.DumpStats
	ImageStats   *physical.DumpStats
}

// NewLogical wraps a logical dump.
func NewLogical(opts logical.DumpOptions) *Dump { return &Dump{lg: &opts} }

// NewImage wraps a physical image dump.
func NewImage(opts physical.DumpOptions) *Dump { return &Dump{ph: &opts} }

// Engine names the job's engine; its value is also the ndmp stream kind.
func (d *Dump) Engine() catalog.Engine {
	if d.lg != nil {
		return catalog.Logical
	}
	return catalog.Image
}

// To runs the job as one stream into sink. A failed attempt's
// checkpoint is remembered, so the next To continues from it onto its
// own sink; after a success the next To starts over.
func (d *Dump) To(ctx context.Context, sink stream.Sink) error {
	var err error
	if d.lg != nil {
		opts := *d.lg
		opts.Sink = sink
		d.LogicalStats, err = logical.Dump(ctx, opts)
		if st := d.LogicalStats; err == nil {
			d.lg.Resume = nil
		} else if st != nil && st.Checkpoint != nil {
			d.lg.Resume = st.Checkpoint
		}
		return err
	}
	opts := *d.ph
	opts.Sink = sink
	d.ImageStats, err = physical.Dump(ctx, opts)
	if st := d.ImageStats; err == nil {
		d.ph.Resume = nil
	} else if st != nil && st.Checkpoint != nil {
		d.ph.Resume = st.Checkpoint
	}
	return err
}

// Fan runs the job as len(sinks) parallel shard streams. A shard's
// failure leaves its siblings running; Outcomes tells them apart and
// Shard continues the failed one.
func (d *Dump) Fan(ctx context.Context, sinks []stream.Sink) error {
	var err error
	if d.lg != nil {
		opts := *d.lg
		opts.Sinks, opts.Resume = sinks, nil
		d.LogicalStats, err = logical.Dump(ctx, opts)
		return err
	}
	opts := *d.ph
	opts.Sinks, opts.Resume = sinks, nil
	d.ImageStats, err = physical.Dump(ctx, opts)
	return err
}

// Shard returns the job that continues stream k of the last attempt
// alone: its To resumes from the checkpoint that stream's failure left.
func (d *Dump) Shard(k int) *Dump {
	if d.lg != nil {
		opts := *d.lg
		opts.Resume = d.LogicalStats.ShardResults[k].Checkpoint
		return &Dump{lg: &opts}
	}
	opts := *d.ph
	opts.Resume = d.ImageStats.ShardResults[k].Checkpoint
	return &Dump{ph: &opts}
}

// Outcome is one stream's result in engine-neutral terms.
type Outcome struct {
	Err     error
	Bytes   int64
	Skipped int  // files or blocks the resume checkpoint let the stream skip
	Durable bool // failed with real progress: its checkpoint is past zero
}

// Outcomes reports the last attempt stream by stream.
func (d *Dump) Outcomes() []Outcome {
	var out []Outcome
	if st := d.LogicalStats; st != nil {
		for _, r := range st.ShardResults {
			out = append(out, Outcome{Err: r.Err, Bytes: r.BytesWritten, Skipped: r.FilesSkipped,
				Durable: r.Checkpoint != nil && r.Checkpoint.LastIno > 0})
		}
	}
	if st := d.ImageStats; st != nil {
		for _, r := range st.ShardResults {
			out = append(out, Outcome{Err: r.Err, Bytes: r.BytesWritten, Skipped: r.BlocksSkipped,
				Durable: r.Checkpoint != nil && r.Checkpoint.BlocksDone > 0})
		}
	}
	return out
}

// Set fills the engine's half of the catalog record for the last
// attempt: engine, level, dates or generations, geometry, size. The
// caller adds what it alone knows (FSID, Snap, Media, Resumed). Image
// sets have no filesystem dump date; the snapshot generation is the
// monotonic clock that orders them, so it doubles as Date.
func (d *Dump) Set() catalog.DumpSet {
	if d.lg != nil {
		ds := catalog.DumpSet{Engine: catalog.Logical, Level: int32(d.lg.Level)}
		if st := d.LogicalStats; st != nil {
			ds.Date, ds.BaseDate = st.Date, st.BaseDate
			ds.Bytes, ds.Units = st.BytesWritten, int64(st.FilesDumped)
		}
		return ds
	}
	ds := catalog.DumpSet{Engine: catalog.Image, Level: -1}
	if st := d.ImageStats; st != nil {
		ds.Date, ds.Gen, ds.BaseGen, ds.NBlocks = int64(st.Gen), st.Gen, st.BaseGen, st.NBlocks
		ds.Bytes, ds.Units = st.BytesWritten, int64(st.BlocksDumped)
	}
	return ds
}

// Summary is the operator's one-liner for a completed attempt.
func (d *Dump) Summary() string {
	if st := d.LogicalStats; st != nil {
		return fmt.Sprintf("%d files, %d dirs, %d bytes (level %d)",
			st.FilesDumped, st.DirsDumped, st.BytesWritten, d.lg.Level)
	}
	return fmt.Sprintf("%d blocks (generation %d)", d.ImageStats.BlocksDumped, d.ImageStats.Gen)
}

// Resume drives d to completion across lost streams and returns how
// many resumes that took. Each attempt gets its own stream from open;
// finish, if non-nil, runs after the attempt with its error and returns
// the attempt's verdict (closing a session can lose it after a clean
// dump). An attempt that fails with an error lost accepts is followed
// by another, continuing from the failed one's checkpoint, at most
// maxResumes times; any other failure is returned at once.
func Resume(ctx context.Context, d *Dump, maxResumes int,
	open func(attempt int) (sink stream.Sink, finish func(error) error, err error),
	lost func(error) bool) (int, error) {
	for attempt := 0; ; attempt++ {
		sink, finish, err := open(attempt)
		if err != nil {
			return attempt, err
		}
		err = d.To(ctx, sink)
		if finish != nil {
			err = finish(err)
		}
		if err == nil || !lost(err) {
			return attempt, err
		}
		if attempt == maxResumes {
			return attempt, fmt.Errorf("engine: %s dump gave up after %d resumes: %w", d.Engine(), maxResumes, err)
		}
	}
}

// Target is where a restore lands: FS (grafted at Dir) for logical
// streams, the raw Vol for image streams.
type Target struct {
	FS    *wafl.FS
	Dir   string
	Vol   storage.Device
	Costs physical.Costs // image restore CPU model
	// Wipe, when set, reformats the target for a full logical recovery
	// and returns the fresh FS; Recover runs it once the plan has opened.
	Wipe func(context.Context) (*wafl.FS, error)
}

// Restored counts what a restore did.
type Restored struct {
	FilesRestored  int
	FilesSkipped   int // on the stream, not selected
	Deleted        int // entries removed by incremental deletion sync
	LinksMade      int
	BlocksRestored int
	Gen            uint64 // generation of the last image stream applied
	// Files is the content single-file image recovery extracted
	// (path → bytes); nil otherwise.
	Files map[string][]byte
}

// RestoreSet applies one dump set's streams to t in order: the streams
// of a resumed or fanned-out dump, every one but the last with salvage
// semantics. incremental says the set applies on top of its base
// (deletion sync for logical, base-generation check for image); files
// restricts a logical restore to those paths.
func RestoreSet(ctx context.Context, eng catalog.Engine, t Target, streams []stream.Source, incremental bool, files ...string) (*Restored, error) {
	res := &Restored{}
	for i, src := range streams {
		salvage := i < len(streams)-1
		if eng == catalog.Image {
			st, err := physical.Restore(ctx, physical.RestoreOptions{
				Vol: t.Vol, Source: src, Costs: t.Costs,
				ExpectIncremental: incremental, Salvage: salvage,
			})
			if err != nil {
				return nil, fmt.Errorf("image stream %d/%d: %w", i+1, len(streams), err)
			}
			res.BlocksRestored += st.BlocksRestored
			res.Gen = st.Gen
			continue
		}
		st, err := logical.Restore(ctx, logical.RestoreOptions{
			FS: t.FS, Source: src, TargetDir: t.Dir, Files: files,
			SyncDeletes: incremental, KernelIntegrated: true, Salvage: salvage,
		})
		if err != nil {
			return nil, fmt.Errorf("logical stream %d/%d: %w", i+1, len(streams), err)
		}
		res.FilesRestored += st.FilesRestored
		res.FilesSkipped += st.FilesSkipped
		res.Deleted += st.Deleted
		res.LinksMade += st.LinksMade
	}
	return res, nil
}

// Opener is the one way back to a cataloged set's bytes: the streams to
// apply or verify, in order (one, but for a resumed set), from wherever
// the media world keeps them — media.Pool.Opener for cartridges,
// backupctl's for stream files and chunk stores. Media that cannot be
// produced is a media.Unmountable error. With damaged non-nil, a reader
// that can ride over an unreadable spot reports it there and reads on;
// with nil the read fails. Whoever reads the streams runs stream.Close.
type Opener func(ctx context.Context, ds catalog.DumpSet, damaged func(volume string, record int)) ([]stream.Source, error)

// Recover executes a restore plan: every step is opened before the
// target is touched — t.Wipe, then each step's streams applied to t in
// chain order, the full first, then each incremental on top — so a plan
// whose media cannot be produced fails with the target as it was. A
// single-file image plan touches no volume: the chain replays onto an
// in-memory scratch device sized from the catalog, and the file is read
// out of the result. progress, if non-nil, sees each completed step.
func Recover(ctx context.Context, plan *catalog.Plan, t Target, open Opener,
	progress func(i int, step catalog.DumpSet, r *Restored)) (*Restored, error) {
	if len(plan.Steps) == 0 {
		return nil, errors.New("engine: empty plan")
	}
	var err error
	opened := make([][]stream.Source, len(plan.Steps))
	for i, step := range plan.Steps {
		if opened[i], err = open(ctx, step, nil); err != nil {
			return nil, fmt.Errorf("engine: set %d: %w", step.ID, err)
		}
		defer stream.Close(opened[i]...)
	}
	var files []string
	extract := plan.File != "" && plan.Engine == catalog.Image
	if extract {
		t = Target{Vol: storage.NewMemDevice(int(plan.Steps[0].NBlocks))}
	} else if plan.File != "" {
		files = []string{plan.File}
	}
	if t.Wipe != nil {
		if t.FS, err = t.Wipe(ctx); err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
	}
	total := &Restored{}
	for i, step := range plan.Steps {
		r, err := RestoreSet(ctx, plan.Engine, t, opened[i], i > 0, files...)
		if err != nil {
			return nil, fmt.Errorf("engine: step %d (set %d): %w", i+1, step.ID, err)
		}
		total.FilesRestored += r.FilesRestored
		total.FilesSkipped += r.FilesSkipped
		total.Deleted += r.Deleted
		total.LinksMade += r.LinksMade
		total.BlocksRestored += r.BlocksRestored
		total.Gen = r.Gen
		if progress != nil {
			progress(i, step, r)
		}
	}
	if extract {
		if total.Files, err = physical.ReadFiles(ctx, t.Vol, plan.File); err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
	}
	return total, nil
}

// ScanSet reads a landed stream into the engine's half of its catalog
// record — what a receiver that never saw the dump's stats can still
// know. The first good header gives dates or generations (every header
// of every stream of a set carries the same values); Units counts what
// the stream carries: the files its file section holds, or the blocks
// an image stream's verification walk finds. A damaged stream still
// yields its header; its Units stop at the damage (0 for an image), and
// the landing's read-back reports it.
func ScanSet(ctx context.Context, eng catalog.Engine, src stream.Source) (catalog.DumpSet, error) {
	switch eng {
	case catalog.Logical:
	case catalog.Image:
		nblocks, gen, baseGen, replay, err := physical.StreamInfo(src)
		if err != nil {
			return catalog.DumpSet{}, err
		}
		ds := catalog.DumpSet{Engine: eng, Level: -1, Date: int64(gen), Gen: gen, BaseGen: baseGen, NBlocks: nblocks}
		if check, err := physical.VerifyStream(ctx, replay); err == nil {
			ds.Units = int64(check.BlockCount)
		}
		return ds, nil
	default:
		// eng may be an unvalidated wire byte; never guess an engine for it.
		return catalog.DumpSet{}, fmt.Errorf("engine: unknown engine %d", eng)
	}
	r := dumpfmt.NewReader(src)
	h, err := r.NextHeader()
	if err != nil {
		return catalog.DumpSet{}, err
	}
	ds := catalog.DumpSet{Engine: eng, Snap: h.Label, Date: h.Date, BaseDate: h.DDate}
	for h, err = r.NextHeader(); err == nil && h.Type != dumpfmt.TSEnd; h, err = r.Walk(h, nil) {
		if h.Type == dumpfmt.TSInode && !wafl.IsDir(h.Dinode.Mode) {
			ds.Units++
		}
	}
	return ds, nil
}
