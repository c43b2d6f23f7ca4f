// Property test for lent buffers: a stream.Source's record and a
// chunk.Media's chunk are valid only until the next read, a header
// dumpfmt.Reader returns only until its next call, and a name a
// wafl.Listing lends (to the dump's Exclude filter, to the restore's
// skeleton) only until its next fill. Every consumer of a
// stream reads it here through a source (and media) that poisons what it
// lent last with 0xA5 before each read, so one that keeps a lent buffer
// past that works on poison. Each must come out exactly as it does
// reading buffers nobody reuses. The Reader needs no such wrapper: it
// poisons the header it lent last, hole map and Dinode included, before
// each call, in every run; what a consumer makes of the headers is held
// to the snapshot itself. A Listing, likewise, poisons the names it lent
// before every refill, in every run, so a restore that deletes a
// non-empty directory and a dump through an Exclude filter are held to
// the snapshots too.
package repro_test

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"slices"
	"strings"
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

	pruned, err := src.SnapshotView("pruned")
	if err != nil {
		t.Fatal(err)
	}
	wantPruned, err := workload.TreeDigest(ctx, pruned, "/")
	if err != nil {
		t.Fatal(err)
	}

	// Logical restore, full then level 1, logical.Verify of the full
	// against what it restored, then the level 1 of "pruned" on top:
	// its SyncDeletes removes a non-empty directory, listing each level
	// below it while the skeleton's listing of its parent is still being
	// iterated.
	type logicalRun struct {
		stats  [3]logical.RestoreStats
		verify logical.VerifyResult
		tree   map[string]workload.Entry
		pruned map[string]workload.Entry
	}
	logicalCycle := func(open func(int) stream.Source) logicalRun {
		t.Helper()
		fs, err := wafl.Mkfs(ctx, storage.NewMemDevice(4096), nil, wafl.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var run logicalRun
		restore := func(i, stream int) {
			st, err := logical.Restore(ctx, logical.RestoreOptions{
				FS: fs, Source: open(stream), KernelIntegrated: true, SyncDeletes: i > 0,
			})
			if err != nil {
				t.Fatalf("logical restore %d: %v", i, err)
			}
			run.stats[i] = *st
		}
		restore(0, 0)
		restore(1, 1)
		res, err := logical.Verify(ctx, logical.VerifyOptions{View: fs.ActiveView(), Source: open(0)})
		if err != nil {
			t.Fatal(err)
		}
		run.verify = *res
		if run.tree, err = workload.TreeDigest(ctx, fs.ActiveView(), "/"); err != nil {
			t.Fatal(err)
		}
		restore(2, 4)
		if run.pruned, err = workload.TreeDigest(ctx, fs.ActiveView(), "/"); err != nil {
			t.Fatal(err)
		}
		return run
	}
	base := logicalCycle(plain)
	if diffs := workload.DiffDigests(want, base.tree); len(diffs) > 0 || len(base.verify.Problems) > 0 {
		t.Fatalf("plain logical restore: %d diffs, verify %v", len(diffs), base.verify.Problems)
	}
	if diffs := workload.DiffDigests(wantPruned, base.pruned); len(diffs) > 0 || base.stats[2].Deleted < 2 {
		t.Fatalf("plain level 1 of the pruned tree: %d diffs, %d entries deleted", len(diffs), base.stats[2].Deleted)
	}
	if got := logicalCycle(scribbled); !reflect.DeepEqual(got, base) {
		t.Errorf("logical restore and verify through a scribbling source: %+v, %v, want %+v, %v",
			got.stats, got.verify.Problems, base.stats, base.verify.Problems)
		for _, d := range workload.DiffDigests(want, got.tree) {
			t.Error(d)
		}
		for _, d := range workload.DiffDigests(wantPruned, got.pruned) {
			t.Error(d)
		}
	}

	// The full dumped through an Exclude filter restores "tip" less what
	// the filter names, and its subtrees.
	wantExcluded := map[string]workload.Entry{}
	for p, e := range want {
		if !slices.ContainsFunc(strings.Split(p, "/"), excluded) {
			wantExcluded[p] = e
		}
	}
	if len(wantExcluded) == len(want) {
		t.Fatal("the filter excludes nothing")
	}
	filtered := func(open func(int) stream.Source) (logical.RestoreStats, map[string]workload.Entry) {
		t.Helper()
		fs, err := wafl.Mkfs(ctx, storage.NewMemDevice(4096), nil, wafl.Options{})
		if err != nil {
			t.Fatal(err)
		}
		st, err := logical.Restore(ctx, logical.RestoreOptions{FS: fs, Source: open(5), KernelIntegrated: true})
		if err != nil {
			t.Fatalf("restore of the filtered full: %v", err)
		}
		tree, err := workload.TreeDigest(ctx, fs.ActiveView(), "/")
		if err != nil {
			t.Fatal(err)
		}
		return *st, tree
	}
	plainSt, plainTree := filtered(plain)
	if diffs := workload.DiffDigests(wantExcluded, plainTree); len(diffs) > 0 {
		t.Errorf("plain restore of the filtered full: %v", diffs)
	}
	if st, tree := filtered(scribbled); st != plainSt || !reflect.DeepEqual(tree, plainTree) {
		t.Errorf("filtered full through a scribbling source: %+v, want %+v; diffs %v",
			st, plainSt, workload.DiffDigests(plainTree, tree))
	}

	// engine.CheckSet (logical.Index, for a logical stream) and
	// engine.ScanSet of all four streams.
	type landing struct {
		findings []engine.Finding
		n        int64
		index    []catalog.FileIndexEntry
		peek     catalog.DumpSet
		peekErr  error
	}
	engines := []catalog.Engine{catalog.Logical, catalog.Logical, catalog.Image, catalog.Image}
	for i, eng := range engines {
		land := func(open func(int) stream.Source) landing {
			var l landing
			l.findings, l.n, l.index = engine.CheckSet(ctx, catalog.DumpSet{Engine: eng}, []stream.Source{open(i)})
			l.peek, l.peekErr = engine.ScanSet(ctx, eng, open(i))
			return l
		}
		want, got := land(plain), land(scribbled)
		if len(want.findings) > 0 || want.peekErr != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("CheckSet and ScanSet of stream %d through a scribbling source: %+v; plain %+v", i, got, want)
		}
	}
	// The full dump's index, held to the stream and the tree rather than
	// to another run: each entry names a file of the snapshot, and its
	// unit is that file's TS_INODE header.
	_, _, index := engine.CheckSet(ctx, catalog.DumpSet{Engine: catalog.Logical}, []stream.Source{scribbled(0)})
	if len(index) == 0 {
		t.Fatal("the full logical dump indexes no file")
	}
	for _, e := range index {
		if e.Unit < 0 || e.Unit >= int64(len(streams[0])/dumpfmt.TPBSize) {
			t.Errorf("index entry %+v: unit past the %d-byte stream", e, len(streams[0]))
			continue
		}
		h, err := dumpfmt.UnmarshalHeader(streams[0][e.Unit*dumpfmt.TPBSize : (e.Unit+1)*dumpfmt.TPBSize])
		if _, inTree := want["/"+e.Path]; !inTree || err != nil || h.Type != dumpfmt.TSInode || h.Inumber != e.Ino {
			t.Errorf("index entry %+v: in the snapshot %v, header at its unit %+v, %v", e, inTree, h, err)
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
