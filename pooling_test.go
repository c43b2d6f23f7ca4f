// Property test for the pooled data path: dump streams must be
// byte-identical with buffer pooling on and off. Any aliasing bug —
// a layer retaining or scribbling on a recycled buffer — shows up as
// a stream diff here, for both engines, full and incremental, for
// streams read back off cartridges whose slabs are pooled, and for a
// dump that salvages unreadable blocks into its pooled hole maps.
package repro_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/tape"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// captureSink records every tape record, copying because the writer
// recycles its record buffers.
type captureSink struct {
	stream []byte
}

func (s *captureSink) WriteRecord(data []byte) error {
	s.stream = append(s.stream, data...)
	return nil
}

func (s *captureSink) NextVolume() error { return fmt.Errorf("no next volume") }

// buildAndDump deterministically builds a filesystem, mutates it
// between two snapshots ("base" and "tip"), and returns it with six
// dump streams: of "tip", logical full + level 1 and physical full +
// incremental from "base"; a logical level 1 of "pruned", "tip" less
// its first non-empty directory (see prune); and a logical full of
// "tip" through an Exclude filter (excluded).
func buildAndDump(t *testing.T) ([6][]byte, *wafl.FS) {
	t.Helper()
	ctx := context.Background()
	dev := storage.NewMemDevice(4096)
	fs, err := wafl.Mkfs(ctx, dev, nil, wafl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Generate(ctx, fs, workload.Spec{
		Seed: 7, Files: 60, DirFanout: 6, MeanFileSize: 12 << 10, Symlinks: 3, Hardlinks: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if err := fs.CreateSnapshot(ctx, "base"); err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Generate(ctx, fs, workload.Spec{
		Seed: 8, Files: 20, DirFanout: 4, MeanFileSize: 8 << 10,
	}); err != nil {
		t.Fatal(err)
	}
	if err := fs.CreateSnapshot(ctx, "tip"); err != nil {
		t.Fatal(err)
	}

	var out [6][]byte
	dates := logical.NewDumpDates()
	for i, level := range []int{0, 1} {
		view, err := fs.SnapshotView("tip")
		if err != nil {
			t.Fatal(err)
		}
		sink := &captureSink{}
		if _, err := logical.Dump(ctx, logical.DumpOptions{
			View: view, Level: level, Dates: dates, FSID: "pool", Label: "pooltest",
			Sink: sink, ReadAhead: 8,
		}); err != nil {
			t.Fatalf("logical level %d: %v", level, err)
		}
		out[i] = sink.stream
	}
	for i, base := range []string{"", "base"} {
		sink := &captureSink{}
		if _, err := physical.Dump(ctx, physical.DumpOptions{
			FS: fs, Vol: dev, SnapName: "tip", BaseSnapName: base, Sink: sink,
		}); err != nil {
			t.Fatalf("physical base %q: %v", base, err)
		}
		out[2+i] = sink.stream
	}

	prune(t, fs)
	if err := fs.CreateSnapshot(ctx, "pruned"); err != nil {
		t.Fatal(err)
	}
	for i, d := range []struct {
		snap  string
		level int
		skip  func(string) bool
	}{{"pruned", 1, nil}, {"tip", 0, excluded}} {
		view, err := fs.SnapshotView(d.snap)
		if err != nil {
			t.Fatal(err)
		}
		sink := &captureSink{}
		if _, err := logical.Dump(ctx, logical.DumpOptions{
			View: view, Level: d.level, Dates: dates, Exclude: d.skip, FSID: "pool", Label: "pooltest",
			Sink: sink, ReadAhead: 8,
		}); err != nil {
			t.Fatalf("logical dump of %s: %v", d.snap, err)
		}
		out[4+i] = sink.stream
	}
	return out, fs
}

// prune removes the first directory under the root, by name, that
// holds a directory of its own, with everything beneath it.
func prune(t *testing.T, fs *wafl.FS) {
	t.Helper()
	ctx := context.Background()
	v := fs.ActiveView()
	ents, err := v.Readdir(ctx, wafl.RootIno)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Type != wafl.ModeDir || e.Name == "." || e.Name == ".." {
			continue
		}
		kids, err := v.Readdir(ctx, e.Ino)
		if err != nil {
			t.Fatal(err)
		}
		if slices.ContainsFunc(kids, func(k wafl.DirEnt) bool { return k.Type == wafl.ModeDir && k.Name != "." && k.Name != ".." }) {
			removeTree(t, fs, "/"+e.Name)
			return
		}
	}
	t.Fatal("prune: no directory under the root holds one")
}

// removeTree removes the file or directory at path and everything
// beneath it.
func removeTree(t *testing.T, fs *wafl.FS, path string) {
	t.Helper()
	ctx := context.Background()
	v := fs.ActiveView()
	ino, err := v.Namei(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	if inode, err := v.GetInode(ctx, ino); err != nil {
		t.Fatal(err)
	} else if wafl.IsDir(inode.Mode) {
		kids, err := v.Readdir(ctx, ino)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range kids {
			if k.Name != "." && k.Name != ".." {
				removeTree(t, fs, path+"/"+k.Name)
			}
		}
	}
	if err := fs.RemovePath(ctx, path); err != nil {
		t.Fatal(err)
	}
}

// excluded is the Exclude filter of buildAndDump's filtered full: every
// name ending in 1, which drops files, directories and their subtrees.
func excluded(name string) bool { return strings.HasSuffix(name, "1") }

// tapeDumps runs a 4-sink, 3-reader logical dump of fs's "base" onto
// four drives, erases the cartridges, dumps "tip" onto them the same
// way, and returns the four streams read back off the cartridges: the
// second dump records into the slabs the erase handed back.
func tapeDumps(t *testing.T, fs *wafl.FS) [][]byte {
	t.Helper()
	ctx := context.Background()
	drives := make([]*tape.Drive, 4)
	var sinks []stream.Sink
	for i := range drives {
		drives[i] = tape.NewDrive(nil, fmt.Sprintf("t%d", i), tape.DefaultParams())
		drives[i].AddCartridges(tape.NewCartridge(fmt.Sprintf("c%d", i)))
		if err := drives[i].Load(nil); err != nil {
			t.Fatal(err)
		}
		sinks = append(sinks, &logical.DriveSink{Drive: drives[i]})
	}
	var out [][]byte
	for _, snap := range []string{"base", "tip"} {
		for _, d := range drives {
			d.Loaded().Erase()
			d.Rewind(nil)
		}
		view, err := fs.SnapshotView(snap)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := logical.Dump(ctx, logical.DumpOptions{
			View: view, FSID: "pool", Label: "pooltape", Sinks: sinks, Readers: 3, ReadAhead: 8,
		}); err != nil {
			t.Fatalf("4-sink dump of %s: %v", snap, err)
		}
	}
	for _, d := range drives {
		d.Rewind(nil)
		var s []byte
		for {
			rec, _, err := d.ReadData(nil, nil, nil)
			if errors.Is(err, tape.ErrEndOfTape) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			s = append(s, rec...)
		}
		out = append(out, s)
	}
	return out
}

// salvagedDump dumps a volume with an unreadable block in every third
// file and a sparse file after each of those, so stageChunk demotes
// entries of its pooled hole maps to holes and then stages holes into
// maps a damaged chunk used before.
func salvagedDump(t *testing.T) []byte {
	t.Helper()
	ctx := context.Background()
	fd := storage.NewFaultDevice(storage.NewMemDevice(4096))
	fs, err := wafl.Mkfs(ctx, fd, nil, wafl.Options{CacheBlocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := workload.Generate(ctx, fs, workload.Spec{Seed: 9, Files: 30, DirFanout: 4, MeanFileSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(paths); i += 3 {
		ino, err := fs.WriteFile(ctx, fmt.Sprintf("%s.sparse", paths[i]), make([]byte, 100), 0644)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Write(ctx, ino, 200<<10, []byte("tail")); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.CP(ctx); err != nil {
		t.Fatal(err)
	}
	// Remounted so the dump reads the device, not blocks still cached.
	if fs, err = wafl.Mount(ctx, fd, nil, wafl.Options{CacheBlocks: 16}); err != nil {
		t.Fatal(err)
	}
	view := fs.ActiveView()
	for i := 0; i < len(paths); i += 3 {
		ino, err := view.Namei(ctx, paths[i])
		if err != nil {
			t.Fatal(err)
		}
		pbn, err := view.BlockAt(ctx, ino, 0)
		if err != nil {
			t.Fatal(err)
		}
		fd.FailRead(int(pbn), storage.ErrLatentSector)
	}
	sink := &captureSink{}
	stats, err := logical.Dump(ctx, logical.DumpOptions{
		View: view, FSID: "pool", Label: "poolsalvage", Sink: sink, Readers: 3, ReadAhead: 8,
	})
	if err != nil {
		t.Fatalf("salvaged dump: %v", err)
	}
	if len(stats.Damaged) == 0 {
		t.Fatal("salvaged dump: no block was demoted to a hole")
	}
	return sink.stream
}

func TestPoolingDoesNotChangeStreams(t *testing.T) {
	if !bufpool.Enabled() {
		t.Fatal("pooling should start enabled")
	}
	all := func() [][]byte {
		streams, fs := buildAndDump(t)
		return append(append(streams[:], tapeDumps(t, fs)...), salvagedDump(t))
	}
	pooled := all()

	bufpool.SetEnabled(false)
	defer bufpool.SetEnabled(true)
	plain := all()

	names := []string{"logical full", "logical level 1", "physical full", "physical incremental",
		"logical level 1 after a pruning", "logical full with a filter", "tape stream 0", "tape stream 1", "tape stream 2", "tape stream 3", "salvaged dump"}
	for i := range pooled {
		if len(pooled[i]) == 0 {
			t.Fatalf("%s: empty stream", names[i])
		}
		if !bytes.Equal(pooled[i], plain[i]) {
			t.Errorf("%s: stream differs with pooling on vs off (%d vs %d bytes)",
				names[i], len(pooled[i]), len(plain[i]))
		}
	}
}
