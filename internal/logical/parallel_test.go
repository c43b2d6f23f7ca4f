package logical

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/nvram"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/tape"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// memSink collects a shard stream's records for byte comparison and
// replay.
type memSink struct{ recs [][]byte }

func (s *memSink) WriteRecord(data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	s.recs = append(s.recs, cp)
	return nil
}

func (s *memSink) NextVolume() error { return errors.New("memSink: single volume") }

func (s *memSink) bytes() []byte {
	var b []byte
	for _, r := range s.recs {
		b = append(b, r...)
	}
	return b
}

type memSource struct {
	recs [][]byte
	pos  int
}

func (s *memSink) source() *memSource { return &memSource{recs: s.recs} }

func (s *memSource) ReadRecord() ([]byte, error) {
	if s.pos >= len(s.recs) {
		return nil, io.EOF
	}
	r := s.recs[s.pos]
	s.pos++
	return r, nil
}

func parallelLogicalFS(t *testing.T, seed int64) (*wafl.FS, *wafl.View) {
	t.Helper()
	src := newFS(t, 16384)
	if _, err := workload.Generate(ctx, src, workload.Spec{
		Seed: seed, Files: 40, DirFanout: 6, MeanFileSize: 12 << 10,
		Symlinks: 3, Hardlinks: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if err := src.CreateSnapshot(ctx, "s"); err != nil {
		t.Fatal(err)
	}
	sv, _ := src.SnapshotView("s")
	return src, sv
}

// dumpShards dumps sv across n in-memory shard streams.
func dumpShards(t *testing.T, sv *wafl.View, n int, label string) []*memSink {
	t.Helper()
	sinks := make([]stream.Sink, n)
	streams := make([]*memSink, n)
	for k := range sinks {
		streams[k] = &memSink{}
		sinks[k] = streams[k]
	}
	if _, err := Dump(ctx, DumpOptions{View: sv, Sinks: sinks, Label: label, ReadAhead: 8, Readers: 2}); err != nil {
		t.Fatalf("parallel dump: %v", err)
	}
	return streams
}

// TestLogicalParallelRestoreOrderIndependence: each shard stream is
// self-contained (full maps, all directories), so restore may apply
// the set in any order and converge to the same tree.
func TestLogicalParallelRestoreOrderIndependence(t *testing.T) {
	_, sv := parallelLogicalFS(t, 72)
	streams := dumpShards(t, sv, 4, "perm")

	wantTree := digests(t, sv, "/")
	for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}, {1, 3, 0, 2}} {
		dst := newFS(t, 16384)
		for _, k := range order {
			if _, err := Restore(ctx, RestoreOptions{
				FS: dst, Source: streams[k].source(), KernelIntegrated: true,
			}); err != nil {
				t.Fatalf("order %v: restoring shard %d: %v", order, k, err)
			}
		}
		assertTreesEqual(t, wantTree, digests(t, dst.ActiveView(), "/"))
		if err := dst.MustCheck(ctx); err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
	}
}

// TestLogicalParallelRestoreStreamsStartTogether: every shard stream
// carries the full directory set, so streams that start at once race
// to make the same directories. Each directory is made by exactly one
// of them, the losers adopt it, and the tree comes out whole.
func TestLogicalParallelRestoreStreamsStartTogether(t *testing.T) {
	_, sv := parallelLogicalFS(t, 74)
	const nShards = 4
	streams := dumpShards(t, sv, nShards, "race")
	wantTree := digests(t, sv, "/")
	dirs := 0
	for p, e := range wantTree {
		if p != "" && e.Type == wafl.ModeDir { // "" is the root
			dirs++
		}
	}

	// A CPU station and a timed NVRAM are what make the simulator
	// interleave the streams between operations.
	env := sim.NewEnv()
	costs := wafl.DefaultCosts()
	costs.CPU = sim.NewStation(env, "cpu", 0)
	dst, err := wafl.Mkfs(ctx, storage.NewMemDevice(16384), nvram.New(env, nvram.DefaultParams()), wafl.Options{Costs: costs, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	made := make([]int, nShards)
	for k := range streams {
		env.Spawn(fmt.Sprintf("restore%d", k), func(p *sim.Proc) {
			st, err := Restore(sim.WithProc(ctx, p), RestoreOptions{FS: dst, Source: streams[k].source(), KernelIntegrated: true})
			if err != nil {
				t.Errorf("shard %d: %v", k, err)
				return
			}
			made[k] = st.DirsCreated
		})
	}
	env.Run()
	assertTreesEqual(t, wantTree, digests(t, dst.ActiveView(), "/"))
	if err := dst.MustCheck(ctx); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range made {
		total += n
	}
	if total != dirs {
		t.Fatalf("streams made %v directories of the tree's %d: want each made exactly once", made, dirs)
	}
}

// skeletonMisses is a restore's StageRecorder that notes the target's
// buffer-cache misses when the directory skeleton is done.
type skeletonMisses struct {
	fs     *wafl.FS
	stage  string
	misses int64
}

func (r *skeletonMisses) Begin(name string) { r.stage = name }

func (r *skeletonMisses) End() {
	if r.stage == "Creating files" {
		_, r.misses = r.fs.CacheStats()
	}
}

// TestParallelRestoreMissesNothingAfterSkeleton: concurrent restore
// streams write several times the buffer cache in file data, through
// consistency points the NVRAM forces mid-restore, onto a target whose
// directories and inode file fit the cache. A consistency point does
// not keep the file data it writes, so the metadata the streams keep
// consulting — Create's directory lookups, the next CP's inode-file
// merge — stays cached: once a stream's skeleton is built, no read
// misses.
func TestParallelRestoreMissesNothingAfterSkeleton(t *testing.T) {
	src := newFS(t, 16384)
	if _, err := workload.Generate(ctx, src, workload.Spec{
		Seed: 75, Files: 60, DirFanout: 6, MeanFileSize: 32 << 10,
	}); err != nil {
		t.Fatal(err)
	}
	if err := src.CreateSnapshot(ctx, "s"); err != nil {
		t.Fatal(err)
	}
	sv, _ := src.SnapshotView("s")
	const nShards = 4
	streams := dumpShards(t, sv, nShards, "cache")

	env := sim.NewEnv()
	costs := wafl.DefaultCosts()
	costs.CPU = sim.NewStation(env, "cpu", 0)
	nv := nvram.DefaultParams()
	nv.Size = 1 << 20 // a consistency point every ~512 KiB logged
	const cacheBlocks = 48
	dst, err := wafl.Mkfs(ctx, storage.NewMemDevice(4096), nvram.New(env, nv),
		wafl.Options{Costs: costs, Env: env, CacheBlocks: cacheBlocks})
	if err != nil {
		t.Fatal(err)
	}
	cps := dst.CPCount()
	recs := make([]*skeletonMisses, nShards)
	for k := range streams {
		recs[k] = &skeletonMisses{fs: dst}
		env.Spawn(fmt.Sprintf("restore%d", k), func(p *sim.Proc) {
			if _, err := Restore(sim.WithProc(ctx, p), RestoreOptions{
				FS: dst, Source: streams[k].source(), KernelIntegrated: true, Stages: recs[k],
			}); err != nil {
				t.Errorf("shard %d: %v", k, err)
			}
		})
	}
	env.Run()
	_, misses := dst.CacheStats() // before the digest reads every file back
	assertTreesEqual(t, digests(t, sv, "/"), digests(t, dst.ActiveView(), "/"))

	// The rig is what the claim needs: several consistency points and
	// several times the cache in file data.
	dataBlocks := 0
	for _, e := range digests(t, sv, "/") {
		if e.Type == wafl.ModeReg {
			dataBlocks += int((e.Size + wafl.BlockSize - 1) / wafl.BlockSize)
		}
	}
	n := int(dst.CPCount() - cps)
	if n < 3 || dataBlocks < n*cacheBlocks {
		t.Fatalf("%d consistency points over %d data blocks into %d frames: the rig no longer washes the cache", n, dataBlocks, cacheBlocks)
	}
	t.Logf("%d consistency points, %d data blocks, %d frames, %d misses in all", n, dataBlocks, cacheBlocks, misses)
	for k, r := range recs {
		if n := misses - r.misses; n != 0 {
			t.Errorf("stream %d: %d buffer-cache misses after its skeleton, want 0", k, n)
		}
	}
}

// TestLogicalParallelShardFaultIsolatedAndResumes is the chaos story
// on the logical engine: one drive of four drops offline mid-dump, the
// sibling shards run to completion, the torn shard hands back its own
// checkpoint, a Sink + Resume re-invocation redumps only that shard's
// remainder, and restoring all the streams rebuilds the exact tree.
func TestLogicalParallelShardFaultIsolatedAndResumes(t *testing.T) {
	_, sv := parallelLogicalFS(t, 73)
	const nShards = 4
	const faulted = 2

	drives := make([]*tape.Drive, nShards)
	sinks := make([]stream.Sink, nShards)
	for k := range drives {
		drives[k] = newTape(t, 0, 1)
		sinks[k] = &DriveSink{Drive: drives[k]}
	}
	drives[faulted].InjectFaults(tape.FaultConfig{OfflineAfterRecords: 14})

	stats, err := Dump(ctx, DumpOptions{
		View: sv, Sinks: sinks, Label: "chaos", ReadAhead: 8,
		Readers: 2, CheckpointEvery: 2,
	})
	if err == nil {
		t.Fatal("dump with a dead drive reported success")
	}
	if !errors.Is(err, tape.ErrOffline) {
		t.Fatalf("dump error = %v, want drive offline", err)
	}
	for k, r := range stats.ShardResults {
		if k == faulted {
			if r.Err == nil {
				t.Fatal("faulted shard reported no error")
			}
			if r.Checkpoint == nil || r.Checkpoint.Shard != faulted || r.Checkpoint.Shards != nShards {
				t.Fatalf("faulted shard checkpoint = %+v", r.Checkpoint)
			}
			if r.Checkpoint.LastIno == 0 || r.FilesDumped == 0 {
				t.Fatalf("offline hit before shard made progress (files=%d, ckpt=%+v); raise OfflineAfterRecords",
					r.FilesDumped, r.Checkpoint)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("sibling shard %d did not complete: %v", k, r.Err)
		}
		if r.BytesWritten == 0 {
			t.Fatalf("sibling shard %d wrote nothing", k)
		}
	}

	// The drive comes back; what reached tape before the outage is
	// intact. The torn shard's checkpoint names its slice of the file
	// list, so one Sink with Resume is the whole request: the complete
	// shards are not redumped.
	drives[faulted].SetOffline(false)
	drives[faulted].Flush(nil)
	torn := stats.ShardResults[faulted].Checkpoint
	cont := &memSink{}
	stats2, err := Dump(ctx, DumpOptions{
		View: sv, Sink: cont, Label: "chaos", ReadAhead: 8,
		Readers: 2, CheckpointEvery: 2, Resume: torn,
	})
	if err != nil {
		t.Fatalf("resumed dump: %v", err)
	}
	if stats2.Date != stats.Date {
		t.Fatalf("resumed dump date %d != original %d", stats2.Date, stats.Date)
	}
	if len(stats2.ShardResults) != 1 || stats2.ShardResults[0].Shard != faulted {
		t.Fatalf("resume ran %+v, want shard %d alone", stats2.ShardResults, faulted)
	}
	if stats2.FilesSkipped == 0 || stats2.FilesDumped == 0 {
		t.Fatalf("resumed shard skipped %d, dumped %d; want both > 0", stats2.FilesSkipped, stats2.FilesDumped)
	}
	// Skipped plus redumped is that shard's slice and no sibling's file:
	// every shard's slice is about a quarter of the list.
	if slice, sibling := stats2.FilesSkipped+stats2.FilesDumped, stats.ShardResults[0].FilesDumped; slice > sibling+1 || slice < sibling-1 {
		t.Fatalf("resumed shard covered %d files, a sibling's slice is %d", slice, sibling)
	}

	// Restore the three intact tapes, the torn tape (salvaging its
	// tail), and the continuation stream; the tree must be exact.
	dst := newFS(t, 16384)
	for k := 0; k < nShards; k++ {
		drives[k].Rewind(nil)
		salvage := k == faulted
		if _, err := Restore(ctx, RestoreOptions{
			FS: dst, Source: NewDriveSource(drives[k], nil, 1),
			KernelIntegrated: true, Salvage: salvage,
		}); err != nil {
			t.Fatalf("restoring shard %d tape: %v", k, err)
		}
	}
	if _, err := Restore(ctx, RestoreOptions{
		FS: dst, Source: cont.source(), KernelIntegrated: true,
	}); err != nil {
		t.Fatalf("restoring continuation stream: %v", err)
	}
	assertTreesEqual(t, digests(t, sv, "/"), digests(t, dst.ActiveView(), "/"))
	if err := dst.MustCheck(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestLogicalParallelIncrementalChain runs a parallel full and a
// parallel incremental on top, restoring both sets.
func TestLogicalParallelIncrementalChain(t *testing.T) {
	src, sv := parallelLogicalFS(t, 74)
	const nShards = 3
	dates := NewDumpDates()

	dump := func(view *wafl.View, level int) []*memSink {
		t.Helper()
		sinks := make([]stream.Sink, nShards)
		streams := make([]*memSink, nShards)
		for k := range sinks {
			streams[k] = &memSink{}
			sinks[k] = streams[k]
		}
		if _, err := Dump(ctx, DumpOptions{
			View: view, Level: level, Dates: dates, FSID: "test",
			Sinks: sinks, Label: fmt.Sprintf("l%d", level), ReadAhead: 8, Readers: 2,
		}); err != nil {
			t.Fatalf("level %d parallel dump: %v", level, err)
		}
		return streams
	}

	full := dump(sv, 0)

	// Mutate and snapshot again for the level-1.
	if _, err := src.WriteFile(ctx, "/inc/new.txt", []byte("new since full"), 0644); err != nil {
		t.Fatal(err)
	}
	if err := src.CreateSnapshot(ctx, "s2"); err != nil {
		t.Fatal(err)
	}
	sv2, _ := src.SnapshotView("s2")
	incr := dump(sv2, 1)

	dst := newFS(t, 16384)
	for _, set := range [][]*memSink{full, incr} {
		for k, s := range set {
			if _, err := Restore(ctx, RestoreOptions{
				FS: dst, Source: s.source(), KernelIntegrated: true,
			}); err != nil {
				t.Fatalf("restoring stream %d: %v", k, err)
			}
		}
	}
	assertTreesEqual(t, digests(t, sv2, "/"), digests(t, dst.ActiveView(), "/"))
	if err := dst.MustCheck(ctx); err != nil {
		t.Fatal(err)
	}
}
