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
// between two snapshots ("base" and "tip"), and returns it with the four
// dump streams of "tip": logical full + level 1, physical full +
// incremental from "base".
func buildAndDump(t *testing.T) ([4][]byte, *wafl.FS) {
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

	var out [4][]byte
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
	return out, fs
}

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
		"tape stream 0", "tape stream 1", "tape stream 2", "tape stream 3", "salvaged dump"}
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
