package chaos

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/tape"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// The rig every dump-and-restore scenario stands on. A scenario is a
// fault and the place it is injected; what it dumps (source), where one
// stream lands (streamTape) and how the outcome is judged (restoreDiff)
// are the same everywhere.

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

// treeSpec is the scenarios' one dataset shape.
func treeSpec(seed int64, files, meanSize int) workload.Spec {
	return workload.Spec{
		Seed: seed, Files: files, DirFanout: 5, MeanFileSize: meanSize,
		Symlinks: files / 10, Hardlinks: files / 15,
	}
}

// newSource builds the dataset on clean storage and freezes it.
func newSource(ctx context.Context, seed int64, files, meanSize, blocks int) (*source, error) {
	dev := storage.NewMemDevice(blocks)
	fs, err := wafl.Mkfs(ctx, dev, nil, wafl.Options{})
	if err != nil {
		return nil, err
	}
	paths, err := workload.Generate(ctx, fs, treeSpec(seed, files, meanSize))
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

// countingSink wraps a DriveSink to count cartridges consumed, so the
// restore side knows how many volumes to read back.
type countingSink struct {
	*logical.DriveSink
	vols int
}

func (c *countingSink) NextVolume() error {
	err := c.DriveSink.NextVolume()
	if err == nil {
		c.vols++
	}
	return err
}

// streamTape is one stream's drive: every attempt of a dump, every
// shard of a fan-out and every stream a tape host accepts lands on its
// own, so a torn stream sits on its media exactly as its fault left it.
type streamTape struct {
	drive *tape.Drive
	sink  *countingSink
	label string // the first cartridge, where the stream starts
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
	return &streamTape{
		drive: d, label: name + "-0",
		sink: &countingSink{DriveSink: &logical.DriveSink{Drive: d}},
	}, nil
}

// sources rewinds every tape to the start of its stream, in order.
func sources(tapes []*streamTape) []stream.Source {
	out := make([]stream.Source, len(tapes))
	for i, t := range tapes {
		d := t.drive
		// A drive its fault left offline is brought back by the operator
		// before it is read.
		d.SetOffline(false)
		for d.Loaded().Label != t.label {
			if err := d.Load(nil); err != nil {
				break
			}
		}
		d.Rewind(nil)
		out[i] = logical.NewDriveSource(d, nil, t.sink.vols+1)
	}
	return out
}
