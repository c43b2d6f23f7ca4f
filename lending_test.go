// Property test for lent buffers: a stream.Source's record and a
// chunk.Media's chunk are valid only until the next read. Every consumer
// of a stream reads it here through a source (and media) that poisons
// what it lent last with 0xA5 before each read, so one that keeps a lent
// buffer past that works on poison. Each must come out exactly as it
// does reading buffers nobody reuses.
package repro_test

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/chunk"
	"repro/internal/dumpfmt"
	"repro/internal/engine"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// records hands out a captured stream in 1 KB records, each in a
// buffer of its own that nothing ever reuses. 1 KB is the smallest a
// logical stream can be blocked in, so that a file header's segments and
// an image stream's preamble each span many records.
type records struct{ rest []byte }

func (r *records) ReadRecord() ([]byte, error) {
	if len(r.rest) == 0 {
		return nil, io.EOF
	}
	n := min(len(r.rest), dumpfmt.TPBSize)
	rec := bytes.Clone(r.rest[:n])
	r.rest = r.rest[n:]
	return rec, nil
}

// poison overwrites what was lent last, if anything.
func poison(last []byte) {
	for i := range last {
		last[i] = 0xA5
	}
}

// scribblingSource lends each record of src in a buffer of its own and
// poisons it before the next read.
type scribblingSource struct {
	src  stream.Source
	last []byte
}

func (s *scribblingSource) ReadRecord() ([]byte, error) {
	poison(s.last)
	rec, err := s.src.ReadRecord()
	s.last = bytes.Clone(rec)
	return s.last, err
}

// scribblingMedia is scribblingSource's chunk.Media counterpart.
type scribblingMedia struct {
	chunk.Media
	last []byte
}

func (m *scribblingMedia) ReadAt(loc chunk.Loc) ([]byte, error) {
	poison(m.last)
	data, err := m.Media.ReadAt(loc)
	m.last = bytes.Clone(data)
	return m.last, err
}

func TestLentRecordsAreNotKept(t *testing.T) {
	ctx := context.Background()
	streams, src := buildAndDump(t)
	tip, err := src.SnapshotView("tip")
	if err != nil {
		t.Fatal(err)
	}
	want, err := workload.TreeDigest(ctx, tip, "/")
	if err != nil {
		t.Fatal(err)
	}
	plain := func(i int) stream.Source { return &records{rest: streams[i]} }
	scribbled := func(i int) stream.Source { return &scribblingSource{src: plain(i)} }

	// Logical restore, full then level 1, and logical.Verify of the full
	// against what it restored.
	type logicalRun struct {
		stats  [2]logical.RestoreStats
		verify logical.VerifyResult
		tree   map[string]workload.Entry
	}
	logicalCycle := func(open func(int) stream.Source) logicalRun {
		t.Helper()
		fs, err := wafl.Mkfs(ctx, storage.NewMemDevice(4096), nil, wafl.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var run logicalRun
		for i := range 2 {
			st, err := logical.Restore(ctx, logical.RestoreOptions{
				FS: fs, Source: open(i), KernelIntegrated: true, SyncDeletes: i > 0,
			})
			if err != nil {
				t.Fatalf("logical restore %d: %v", i, err)
			}
			run.stats[i] = *st
		}
		res, err := logical.Verify(ctx, logical.VerifyOptions{View: fs.ActiveView(), Source: open(0)})
		if err != nil {
			t.Fatal(err)
		}
		run.verify = *res
		if run.tree, err = workload.TreeDigest(ctx, fs.ActiveView(), "/"); err != nil {
			t.Fatal(err)
		}
		return run
	}
	base := logicalCycle(plain)
	if diffs := workload.DiffDigests(want, base.tree); len(diffs) > 0 || len(base.verify.Problems) > 0 {
		t.Fatalf("plain logical restore: %d diffs, verify %v", len(diffs), base.verify.Problems)
	}
	if got := logicalCycle(scribbled); !reflect.DeepEqual(got, base) {
		t.Errorf("logical restore and verify through a scribbling source: %+v, %v, want %+v, %v",
			got.stats, got.verify.Problems, base.stats, base.verify.Problems)
		for _, d := range workload.DiffDigests(want, got.tree) {
			t.Error(d)
		}
	}

	// engine.Verify of all four streams.
	engines := []catalog.Engine{catalog.Logical, catalog.Logical, catalog.Image, catalog.Image}
	for i, eng := range engines {
		wantN, wantErr := engine.Verify(ctx, eng, plain(i))
		gotN, gotErr := engine.Verify(ctx, eng, scribbled(i))
		if wantErr != nil || gotN != wantN || gotErr != nil {
			t.Errorf("engine.Verify of stream %d: %d, %v; plain %d, %v", i, gotN, gotErr, wantN, wantErr)
		}
	}

	// physical.Restore of the image full through StreamInfo's replay,
	// which keeps the records it peeked.
	imageTree := func(src stream.Source) map[string]workload.Entry {
		t.Helper()
		nblocks, _, _, replay, err := physical.StreamInfo(src)
		if err != nil {
			t.Fatal(err)
		}
		dev := storage.NewMemDevice(int(nblocks))
		if _, err := physical.Restore(ctx, physical.RestoreOptions{Vol: dev, Source: replay}); err != nil {
			t.Fatalf("image restore: %v", err)
		}
		fs, err := wafl.Mount(ctx, dev, nil, wafl.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tree, err := workload.TreeDigest(ctx, fs.ActiveView(), "/")
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	if diffs := workload.DiffDigests(want, imageTree(scribbled(2))); len(diffs) > 0 {
		t.Errorf("image restore through a scribbling source: %v", diffs)
	}

	// chunk.Reader over scribbling media, itself read through a
	// scribbling source, feeding a logical restore.
	ix, err := catalog.Open(&catalog.MemStore{})
	if err != nil {
		t.Fatal(err)
	}
	media := chunk.NewMemMedia("m")
	w, err := chunk.NewWriter(chunk.WriterOptions{Index: ix, Media: media, Engine: "logical"})
	if err != nil {
		t.Fatal(err)
	}
	for full := plain(0); ; {
		rec, err := full.ReadRecord()
		if err == io.EOF {
			break
		}
		if err := w.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	m, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	fs, err := wafl.Mkfs(ctx, storage.NewMemDevice(4096), nil, wafl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reader := chunk.NewReader(ix, &scribblingMedia{Media: media}, m)
	st, err := logical.Restore(ctx, logical.RestoreOptions{
		FS: fs, Source: &scribblingSource{src: reader}, KernelIntegrated: true,
	})
	if err != nil {
		t.Fatalf("dedup'd restore: %v", err)
	}
	got, err := workload.TreeDigest(ctx, fs.ActiveView(), "/")
	if err != nil {
		t.Fatal(err)
	}
	if diffs := workload.DiffDigests(want, got); len(diffs) > 0 || *st != base.stats[0] {
		t.Errorf("dedup'd restore through scribbling media: %+v (plain %+v), diffs %v", *st, base.stats[0], diffs)
	}
}
