package chaos

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/logical"
	"repro/internal/ndmp"
	"repro/internal/obs"
	"repro/internal/physical"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/tape"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// The rig every dump-and-restore scenario stands on. A scenario is a
// fault and the place it is injected; what it dumps (Dataset, source),
// where one stream lands (streamTape, tapeHost), how a session stream
// is faulted and redialled (tripSink, attempts) and how the outcome is
// judged (Outcome.restore) are the same everywhere.

// Dataset is what a scenario dumps and with which engine: a seeded
// tree of Files regular files of MeanFileSize bytes on average.
type Dataset struct {
	Seed         int64
	Engine       catalog.Engine
	Files        int
	MeanFileSize int
}

// defaults fills the unset knobs; files is the scenario's tree size.
func (d *Dataset) defaults(files int) {
	if d.Files <= 0 {
		d.Files = files
	}
	if d.MeanFileSize <= 0 {
		d.MeanFileSize = 12 << 10
	}
}

// source is what a scenario dumps: a seeded filesystem, the frozen
// snapshot of it every attempt reads, and that snapshot's digest — the
// reference a restore is compared with.
type source struct {
	dev   storage.Device
	fs    *wafl.FS
	paths []string // regular files, sorted
	snap  string
	view  *wafl.View
	want  map[string]workload.Entry
}

// newSource builds d's tree on dev and freezes it.
func newSource(ctx context.Context, d Dataset, dev storage.Device, opts wafl.Options) (*source, error) {
	fs, err := wafl.Mkfs(ctx, dev, nil, opts)
	if err != nil {
		return nil, err
	}
	paths, err := workload.Generate(ctx, fs, workload.Spec{
		Seed: d.Seed, Files: d.Files, DirFanout: 5, MeanFileSize: d.MeanFileSize,
		Symlinks: d.Files / 10, Hardlinks: d.Files / 15,
	})
	if err != nil {
		return nil, err
	}
	s := &source{dev: dev, fs: fs, paths: paths}
	return s, s.freeze(ctx, "chaos")
}

// freeze snapshots the filesystem as name; dumps read that snapshot and
// restores are compared with it from here on.
func (s *source) freeze(ctx context.Context, name string) error {
	if err := s.fs.CreateSnapshot(ctx, name); err != nil {
		return err
	}
	view, err := s.fs.SnapshotView(name)
	if err != nil {
		return err
	}
	want, err := workload.TreeDigest(ctx, view, "/")
	if err != nil {
		return fmt.Errorf("chaos: source tree unreadable: %w", err)
	}
	s.snap, s.view, s.want = name, view, want
	return nil
}

// dump is the engine's job over the frozen snapshot. readers > 0 asks
// for that many parallel readers per stream.
func (s *source) dump(eng catalog.Engine, checkpointEvery, readers int) *engine.Dump {
	if eng == catalog.Image {
		return engine.NewImage(physical.DumpOptions{
			FS: s.fs, Vol: s.dev, SnapName: s.snap,
			Readers: readers, ReadAhead: readers, CheckpointEvery: checkpointEvery,
		})
	}
	return engine.NewLogical(logical.DumpOptions{
		View: s.view, Label: "chaos", ReadAhead: 8,
		Readers: readers, CheckpointEvery: checkpointEvery,
	})
}

// maxResumes bounds the checkpoint resumes of every scenario's dump.
const maxResumes = 4

// resumable is the dump of a scenario that resumes after a lost
// stream: unless the scenario sets checkpointEvery, it checkpoints
// every 2 files or 32 blocks.
func (s *source) resumable(eng catalog.Engine, checkpointEvery int) *engine.Dump {
	return s.dump(eng, perEngine(checkpointEvery, eng, 2, 32), 0)
}

// restoreDiff applies a set's streams to a fresh volume of the source's
// size and returns the paths whose restored state differs from the
// frozen snapshot (none = byte-identical).
func (s *source) restoreDiff(ctx context.Context, eng catalog.Engine, streams []stream.Source) ([]string, error) {
	t := engine.Target{Vol: storage.NewMemDevice(s.dev.NumBlocks())}
	var err error
	if eng != catalog.Image {
		if t.FS, err = wafl.Mkfs(ctx, t.Vol, nil, wafl.Options{}); err != nil {
			return nil, err
		}
	}
	if _, err := engine.RestoreSet(ctx, eng, t, streams, false); err != nil {
		return nil, fmt.Errorf("chaos: restoring %w", err)
	}
	if eng == catalog.Image {
		if t.FS, err = wafl.Mount(ctx, t.Vol, nil, wafl.Options{}); err != nil {
			return nil, err
		}
	}
	got, err := workload.TreeDigest(ctx, t.FS.ActiveView(), "/")
	if err != nil {
		return nil, err
	}
	var diffs []string
	for p, e := range s.want {
		if g, ok := got[p]; !ok || g != e {
			diffs = append(diffs, p)
		}
	}
	for p := range got {
		if _, ok := s.want[p]; !ok {
			diffs = append(diffs, p)
		}
	}
	sort.Strings(diffs)
	return diffs, nil
}

// Outcome is what every dump-and-restore scenario reports.
type Outcome struct {
	Engine    catalog.Engine
	Seed      int64
	Resumes   int      // checkpoint-resumed dump invocations (streams - 1)
	DiffPaths []string // source paths that differ after restore
	Identical bool     // the restored tree matches byte for byte

	// Metrics is the run's final registry snapshot: every counter the
	// scenario's layers registered, for post-mortem inspection.
	Metrics []obs.Point
}

// restore reads tapes back in order onto a fresh volume and records
// how the tree compares with src's frozen snapshot. Every stream but
// the last may have torn when its fault hit; restore salvages those.
func (o *Outcome) restore(ctx context.Context, src *source, tapes []*streamTape) error {
	streams, err := sources(tapes)
	if err != nil {
		return err
	}
	if o.DiffPaths, err = src.restoreDiff(ctx, o.Engine, streams); err != nil {
		return err
	}
	o.Identical = len(o.DiffPaths) == 0
	return nil
}

// perEngine returns v when the scenario set it, else the engine's
// default: image records carry ~60 KB of extents against ~10 KB of
// logical dump stream, so knobs counted in records or blocks need a
// different value per engine to land a fault mid-dump.
func perEngine(v int, eng catalog.Engine, logicalDefault, imageDefault int) int {
	if v > 0 {
		return v
	}
	if eng == catalog.Image {
		return imageDefault
	}
	return logicalDefault
}

// streamTape is one stream's drive and its sink: every attempt of a
// dump, every shard of a fan-out and every stream a tape host accepts
// lands on its own, so a torn stream sits on its media exactly as its
// fault left it.
type streamTape struct {
	*logical.DriveSink
	label string // the first cartridge, where the stream starts
	vols  int    // cartridges consumed, so the restore knows how many to read
}

func (t *streamTape) NextVolume() error {
	err := t.DriveSink.NextVolume()
	if err == nil {
		t.vols++
	}
	return err
}

// newStreamTape loads a fresh drive named name with its cartridges.
func newStreamTape(name string, cartridges int, capacity int64) (*streamTape, error) {
	p := tape.DefaultParams()
	p.Capacity = capacity
	d := tape.NewDrive(nil, name, p)
	for i := 0; i < max(cartridges, 1); i++ {
		d.AddCartridges(tape.NewCartridge(fmt.Sprintf("%s-%d", name, i)))
	}
	if err := d.Load(nil); err != nil {
		return nil, err
	}
	return &streamTape{DriveSink: &logical.DriveSink{Drive: d}, label: name + "-0"}, nil
}

// sources rewinds every tape to the start of its stream, in order.
func sources(tapes []*streamTape) ([]stream.Source, error) {
	out := make([]stream.Source, len(tapes))
	for i, t := range tapes {
		d := t.Drive
		// A drive its fault left offline is brought back by the operator
		// before it is read.
		d.SetOffline(false)
		if err := d.Mount(nil, t.label); err != nil {
			return nil, err
		}
		d.Rewind(nil)
		out[i] = logical.NewDriveSource(d, nil, t.vols+1)
	}
	return out, nil
}

// tapeHost is a remote tape host that lands every stream it accepts on
// its own streamTape, named name plus the stream number, appended to
// *tapes in the order the streams arrive.
func tapeHost(name string, tapes *[]*streamTape, cartridges int, capacity int64) *ndmp.Host {
	return ndmp.NewHost(func(h ndmp.Hello) (ndmp.Sink, error) {
		t, err := newStreamTape(fmt.Sprintf("%s%d", name, h.Stream), cartridges, capacity)
		if err != nil {
			return nil, err
		}
		*tapes = append(*tapes, t)
		return t, nil
	})
}

// tripSink adapts the current attempt's session to the engines' sink
// contract and fires a fault scheduled by record count: once the
// accepted records reach at[0], trip runs and at moves on.
type tripSink struct {
	sess    *ndmp.Session // the current attempt's
	written int
	at      []int // cumulative accepted-record counts
	trip    func()
	tripped int
}

func (t *tripSink) WriteRecord(rec []byte) error {
	if err := t.sess.WriteRecord(rec); err != nil {
		return err
	}
	t.written++
	if len(t.at) > 0 && t.written >= t.at[0] {
		t.trip()
		t.at = t.at[1:]
		t.tripped++
	}
	return nil
}

func (t *tripSink) NextVolume() error { return t.sess.NextVolume() }

// Sync forwards the engines' checkpoint drain to the session, which
// is what makes a checkpoint mean "acknowledged durable" over the
// wire. Without it a resume could trust a checkpoint the host never
// received and silently lose the records in between.
func (t *tripSink) Sync() error { return t.sess.Sync() }

// attempts dumps through one ndmp session per engine.Resume attempt:
// each attempt runs fresh (if set), dials its own stream with cfg and
// writes through sink; when the attempt ends its session is closed and
// its reconnects and replays are summed, and an attempt a
// StaleStreamError ended is counted.
type attempts struct {
	dial  ndmp.Dialer
	cfg   ndmp.Config // Stream is set per attempt
	reg   *obs.Registry
	fresh func()
	sink  tripSink

	reconnects, replayed, stale int
}

func (a *attempts) open(attempt int) (stream.Sink, func(error) error, error) {
	if a.fresh != nil {
		a.fresh()
	}
	cfg := a.cfg
	cfg.Stream = attempt
	sess, err := ndmp.Dial(a.dial, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("chaos: dial stream %d: %w", attempt, err)
	}
	sess.RegisterMetrics(a.reg)
	a.sink.sess = sess
	return &a.sink, func(err error) error {
		if err == nil {
			err = sess.Close()
		}
		st := sess.Stats()
		a.reconnects += st.Reconnects
		a.replayed += st.Replayed
		var se *ndmp.StaleStreamError
		if errors.As(err, &se) {
			a.stale++
		}
		return err
	}, nil
}
