package physical

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/wafl"
	"repro/internal/workload"
)

var ctx = context.Background()

// memSink/memSource buffer an image stream in memory.
type memSink struct {
	recs     [][]byte
	capacity int64
	used     int64
	vols     int
}

func (s *memSink) WriteRecord(data []byte) error {
	if s.capacity > 0 && s.used+int64(len(data)) > s.capacity {
		return errors.New("physical test: end of media (unwrapped)")
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.recs = append(s.recs, cp)
	s.used += int64(len(data))
	return nil
}

func (s *memSink) NextVolume() error { s.used = 0; s.vols++; return nil }

func (s *memSink) source() *memSource { return &memSource{recs: s.recs} }

type memSource struct {
	recs [][]byte
	pos  int
}

func (s *memSource) ReadRecord() ([]byte, error) {
	if s.pos >= len(s.recs) {
		return nil, io.EOF
	}
	r := s.recs[s.pos]
	s.pos++
	return r, nil
}

func newFS(t testing.TB, blocks int) (*wafl.FS, *storage.MemDevice) {
	t.Helper()
	dev := storage.NewMemDevice(blocks)
	fs, err := wafl.Mkfs(ctx, dev, nil, wafl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return fs, dev
}

func imageDump(t *testing.T, fs *wafl.FS, dev storage.Device, snap, base string) *memSink {
	t.Helper()
	sink := &memSink{}
	_, err := Dump(ctx, DumpOptions{FS: fs, Vol: dev, SnapName: snap, BaseSnapName: base, Sink: sink})
	if err != nil {
		t.Fatalf("image dump: %v", err)
	}
	return sink
}

func TestTable1BlockStates(t *testing.T) {
	// The paper's Table 1: with full dump at snapshot A and an
	// incremental at snapshot B,
	//   (0,0) not in either      → not dumped
	//   (0,1) newly written      → included in the incremental
	//   (1,0) deleted before B   → not included
	//   (1,1) unchanged          → not included
	fs, _ := newFS(t, 2048)

	stable, _ := fs.WriteFile(ctx, "/stable", bytes.Repeat([]byte{1}, wafl.BlockSize), 0644)
	doomed, _ := fs.WriteFile(ctx, "/doomed", bytes.Repeat([]byte{2}, wafl.BlockSize), 0644)
	fs.CP(ctx)
	stablePbn, _ := fs.ActiveView().BlockAt(ctx, stable, 0)
	doomedPbn, _ := fs.ActiveView().BlockAt(ctx, doomed, 0)

	if err := fs.CreateSnapshot(ctx, "A"); err != nil {
		t.Fatal(err)
	}
	fs.RemovePath(ctx, "/doomed")
	fresh, _ := fs.WriteFile(ctx, "/fresh", bytes.Repeat([]byte{3}, wafl.BlockSize), 0644)
	fs.CP(ctx)
	freshPbn, _ := fs.ActiveView().BlockAt(ctx, fresh, 0)
	if err := fs.CreateSnapshot(ctx, "B"); err != nil {
		t.Fatal(err)
	}

	wordsA, err := fs.SnapshotBlockMapWords(ctx, "A")
	if err != nil {
		t.Fatal(err)
	}
	wordsB, err := fs.SnapshotBlockMapWords(ctx, "B")
	if err != nil {
		t.Fatal(err)
	}
	inc := IncrementalBlocks(wordsB, wordsA)
	incSet := make(map[uint32]bool, len(inc))
	for _, b := range inc {
		incSet[b] = true
	}

	if !incSet[uint32(freshPbn)] {
		t.Error("(0,1) newly written block missing from incremental")
	}
	if incSet[uint32(stablePbn)] {
		t.Error("(1,1) unchanged block wrongly included")
	}
	if incSet[uint32(doomedPbn)] {
		t.Error("(1,0) deleted block wrongly included")
	}
	// (0,0): a block free in both maps.
	for b := wafl.FsinfoReserved; b < len(wordsB); b++ {
		if wordsA[b] == 0 && wordsB[b] == 0 {
			if incSet[uint32(b)] {
				t.Errorf("(0,0) free block %d included", b)
			}
			break
		}
	}
}

func TestImageDumpRestoreRoundTrip(t *testing.T) {
	fs, dev := newFS(t, 8192)
	if _, err := workload.Generate(ctx, fs, workload.Spec{Seed: 11, Files: 80, DirFanout: 8, MeanFileSize: 8 << 10, Symlinks: 4, Hardlinks: 3}); err != nil {
		t.Fatal(err)
	}
	if err := fs.CreateSnapshot(ctx, "backup"); err != nil {
		t.Fatal(err)
	}
	sv, _ := fs.SnapshotView("backup")
	want, err := workload.TreeDigest(ctx, sv, "/")
	if err != nil {
		t.Fatal(err)
	}

	sink := imageDump(t, fs, dev, "backup", "")

	// Disaster: restore onto a brand-new (zeroed) volume.
	target := storage.NewMemDevice(8192)
	rstats, err := Restore(ctx, RestoreOptions{Vol: target, Source: sink.source()})
	if err != nil {
		t.Fatal(err)
	}
	if rstats.BlocksRestored == 0 {
		t.Fatal("nothing restored")
	}

	restored, err := wafl.Mount(ctx, target, nil, wafl.Options{})
	if err != nil {
		t.Fatalf("mounting restored volume: %v", err)
	}
	got, err := workload.TreeDigest(ctx, restored.ActiveView(), "/")
	if err != nil {
		t.Fatal(err)
	}
	if diffs := workload.DiffDigests(want, got); len(diffs) > 0 {
		t.Fatalf("restored tree differs: %v", diffs[:min(5, len(diffs))])
	}
	if err := restored.MustCheck(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestImageRestorePreservesOlderSnapshots(t *testing.T) {
	// "Unlike the logical dump, which preserves just the live file
	// system, the block based device can backup all snapshots."
	fs, dev := newFS(t, 4096)
	fs.WriteFile(ctx, "/gen1", []byte("generation one"), 0644)
	fs.CreateSnapshot(ctx, "old")
	fs.WriteFile(ctx, "/gen1", []byte("generation two"), 0644)
	fs.WriteFile(ctx, "/extra", []byte("later"), 0644)
	fs.CreateSnapshot(ctx, "backup")

	sink := imageDump(t, fs, dev, "backup", "")
	target := storage.NewMemDevice(4096)
	if _, err := Restore(ctx, RestoreOptions{Vol: target, Source: sink.source()}); err != nil {
		t.Fatal(err)
	}
	restored, err := wafl.Mount(ctx, target, nil, wafl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snaps := restored.Snapshots()
	if len(snaps) != 1 || snaps[0].Name != "old" {
		t.Fatalf("restored snapshots = %v, want [old]", snaps)
	}
	sv, err := restored.SnapshotView("old")
	if err != nil {
		t.Fatal(err)
	}
	got, err := sv.ReadFile(ctx, "/gen1")
	if err != nil || string(got) != "generation one" {
		t.Fatalf("old snapshot content: %q, %v", got, err)
	}
	live, _ := restored.ActiveView().ReadFile(ctx, "/gen1")
	if string(live) != "generation two" {
		t.Fatalf("live content: %q", live)
	}
	if err := restored.MustCheck(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalImageChain(t *testing.T) {
	fs, dev := newFS(t, 8192)
	workload.Generate(ctx, fs, workload.Spec{Seed: 12, Files: 40, DirFanout: 6, MeanFileSize: 8 << 10})
	fs.CreateSnapshot(ctx, "level0")
	full := imageDump(t, fs, dev, "level0", "")

	// Mutate: the incremental should be much smaller than the full.
	fs.WriteFile(ctx, "/new-after-l0", []byte("delta data"), 0644)
	fs.RemovePath(ctx, "/aged") // may not exist; ignore
	fs.CreateSnapshot(ctx, "level1")
	sink1 := &memSink{}
	s1, err := Dump(ctx, DumpOptions{FS: fs, Vol: dev, SnapName: "level1", BaseSnapName: "level0", Sink: sink1})
	if err != nil {
		t.Fatal(err)
	}
	fullStats := func() *DumpStats {
		sink := &memSink{}
		st, err := Dump(ctx, DumpOptions{FS: fs, Vol: dev, SnapName: "level1", Sink: sink})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}()
	if s1.BlocksDumped >= fullStats.BlocksDumped/2 {
		t.Fatalf("incremental %d blocks vs full %d: not incremental", s1.BlocksDumped, fullStats.BlocksDumped)
	}

	// Apply: full then incremental.
	target := storage.NewMemDevice(8192)
	if _, err := Restore(ctx, RestoreOptions{Vol: target, Source: full.source()}); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(ctx, RestoreOptions{Vol: target, Source: sink1.source(), ExpectIncremental: true}); err != nil {
		t.Fatal(err)
	}
	restored, err := wafl.Mount(ctx, target, nil, wafl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.ActiveView().ReadFile(ctx, "/new-after-l0")
	if err != nil || string(got) != "delta data" {
		t.Fatalf("incremental content: %q, %v", got, err)
	}
	sv1, _ := fs.SnapshotView("level1")
	want, _ := workload.TreeDigest(ctx, sv1, "/")
	gotD, _ := workload.TreeDigest(ctx, restored.ActiveView(), "/")
	if diffs := workload.DiffDigests(want, gotD); len(diffs) > 0 {
		t.Fatalf("chain restore differs: %v", diffs[:min(5, len(diffs))])
	}
	if err := restored.MustCheck(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalRejectsWrongBase(t *testing.T) {
	fs, dev := newFS(t, 4096)
	fs.WriteFile(ctx, "/a", []byte("a"), 0644)
	fs.CreateSnapshot(ctx, "s1")
	fs.WriteFile(ctx, "/b", []byte("b"), 0644)
	fs.CreateSnapshot(ctx, "s2")
	inc := imageDump(t, fs, dev, "s2", "s1")

	// A fresh volume is not at s1's state: the incremental must refuse.
	target := storage.NewMemDevice(4096)
	if _, err := Restore(ctx, RestoreOptions{Vol: target, Source: inc.source(), ExpectIncremental: true}); !errors.Is(err, ErrWrongBase) {
		t.Fatalf("err = %v, want ErrWrongBase", err)
	}
	// And without ExpectIncremental it must refuse outright.
	if _, err := Restore(ctx, RestoreOptions{Vol: target, Source: inc.source()}); !errors.Is(err, ErrWrongBase) {
		t.Fatalf("err = %v, want ErrWrongBase", err)
	}
}

func TestRestoreRejectsSmallVolume(t *testing.T) {
	fs, dev := newFS(t, 4096)
	fs.WriteFile(ctx, "/f", []byte("x"), 0644)
	fs.CreateSnapshot(ctx, "s")
	sink := imageDump(t, fs, dev, "s", "")
	// "It may even be necessary to restore the file system to disks
	// that are the same size and configuration as the originals."
	small := storage.NewMemDevice(2048)
	if _, err := Restore(ctx, RestoreOptions{Vol: small, Source: sink.source()}); !errors.Is(err, ErrGeometry) {
		t.Fatalf("err = %v, want ErrGeometry", err)
	}
}

func TestStreamChecksumDetectsCorruption(t *testing.T) {
	fs, dev := newFS(t, 4096)
	fs.WriteFile(ctx, "/f", bytes.Repeat([]byte{7}, 64<<10), 0644)
	fs.CreateSnapshot(ctx, "s")
	sink := imageDump(t, fs, dev, "s", "")
	// Flip a byte deep in the stream (past the header record).
	sink.recs[len(sink.recs)/2][100] ^= 0xFF
	target := storage.NewMemDevice(4096)
	_, err := Restore(ctx, RestoreOptions{Vol: target, Source: sink.source()})
	if err == nil {
		t.Fatal("corrupt stream restored without error")
	}
}

func TestBaseMustBeOlder(t *testing.T) {
	fs, dev := newFS(t, 4096)
	fs.CreateSnapshot(ctx, "s1")
	fs.WriteFile(ctx, "/x", []byte("x"), 0644)
	fs.CreateSnapshot(ctx, "s2")
	sink := &memSink{}
	if _, err := Dump(ctx, DumpOptions{FS: fs, Vol: dev, SnapName: "s1", BaseSnapName: "s2", Sink: sink}); err == nil {
		t.Fatal("dump with newer base accepted")
	}
}

func TestExtractSingleFileFromImage(t *testing.T) {
	fs, dev := newFS(t, 8192)
	fs.WriteFile(ctx, "/docs/report.txt", []byte("quarterly numbers"), 0644)
	fs.WriteFile(ctx, "/docs/other.txt", []byte("irrelevant"), 0644)
	fs.CreateSnapshot(ctx, "full")
	full := imageDump(t, fs, dev, "full", "")

	fs.WriteFile(ctx, "/docs/report.txt", []byte("quarterly numbers, revised"), 0644)
	fs.CreateSnapshot(ctx, "incr")
	inc := imageDump(t, fs, dev, "incr", "full")

	// Replay the full image alone onto scratch: the original version.
	scratch := storage.NewMemDevice(dev.NumBlocks())
	if _, err := Restore(ctx, RestoreOptions{Vol: scratch, Source: full.source()}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFiles(ctx, scratch, "/docs/report.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(got["/docs/report.txt"]) != "quarterly numbers" {
		t.Fatalf("full extract = %q", got["/docs/report.txt"])
	}
	if _, err := ReadFiles(ctx, scratch, "/nope"); err == nil {
		t.Fatal("extracting a missing path succeeded")
	}

	// Replay the chain: the revised version.
	scratch = storage.NewMemDevice(dev.NumBlocks())
	for i, src := range []stream.Source{full.source(), inc.source()} {
		if _, err := Restore(ctx, RestoreOptions{Vol: scratch, Source: src, ExpectIncremental: i > 0}); err != nil {
			t.Fatal(err)
		}
	}
	got, err = ReadFiles(ctx, scratch, "/docs/report.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(got["/docs/report.txt"]) != "quarterly numbers, revised" {
		t.Fatalf("chain extract = %q", got["/docs/report.txt"])
	}
}

func TestImageDumpConcurrentWithActivity(t *testing.T) {
	// The snapshot freezes the image: active writes during the dump
	// must not corrupt it (COW guarantees the dumped blocks are
	// immutable while the snapshot exists).
	fs, dev := newFS(t, 8192)
	workload.Generate(ctx, fs, workload.Spec{Seed: 13, Files: 30, DirFanout: 6, MeanFileSize: 8 << 10})
	fs.CreateSnapshot(ctx, "frozen")
	sv, _ := fs.SnapshotView("frozen")
	want, _ := workload.TreeDigest(ctx, sv, "/")

	// Churn the live filesystem *before* reading the dump set — the
	// equivalent of activity racing the dump.
	for i := 0; i < 10; i++ {
		fs.WriteFile(ctx, "/churn", bytes.Repeat([]byte{byte(i)}, 100<<10), 0644)
		fs.CP(ctx)
	}
	sink := imageDump(t, fs, dev, "frozen", "")
	target := storage.NewMemDevice(8192)
	if _, err := Restore(ctx, RestoreOptions{Vol: target, Source: sink.source()}); err != nil {
		t.Fatal(err)
	}
	restored, err := wafl.Mount(ctx, target, nil, wafl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := workload.TreeDigest(ctx, restored.ActiveView(), "/")
	if diffs := workload.DiffDigests(want, got); len(diffs) > 0 {
		t.Fatalf("dump raced by activity differs: %v", diffs[:min(5, len(diffs))])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
