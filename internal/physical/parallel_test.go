package physical

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"repro/internal/logical"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/tape"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// streamBytes flattens a sink's records into one byte stream.
func streamBytes(s *memSink) []byte {
	var out []byte
	for _, r := range s.recs {
		out = append(out, r...)
	}
	return out
}

// parallelFS builds a populated filesystem with a snapshot to dump.
func parallelFS(t *testing.T, seed int64) (*wafl.FS, *storage.MemDevice) {
	t.Helper()
	fs, dev := newFS(t, 8192)
	if _, err := workload.Generate(ctx, fs, workload.Spec{Seed: seed, Files: 60, DirFanout: 8, MeanFileSize: 12 << 10, Symlinks: 3, Hardlinks: 2}); err != nil {
		t.Fatal(err)
	}
	if err := fs.CreateSnapshot(ctx, "s"); err != nil {
		t.Fatal(err)
	}
	return fs, dev
}

// TestParallelDumpRestoreRoundTrip: 4 concurrent shard streams from one
// Dump call, applied by one parallel Restore call, rebuild the tree.
func TestParallelDumpRestoreRoundTrip(t *testing.T) {
	fs, dev := parallelFS(t, 21)
	sv, _ := fs.SnapshotView("s")
	want, err := workload.TreeDigest(ctx, sv, "/")
	if err != nil {
		t.Fatal(err)
	}

	sinks := make([]stream.Sink, 4)
	mem := make([]*memSink, 4)
	for k := range sinks {
		mem[k] = &memSink{}
		sinks[k] = mem[k]
	}
	if _, err := Dump(ctx, DumpOptions{
		FS: fs, Vol: dev, SnapName: "s", Sinks: sinks, Readers: 2, ReadAhead: 2,
	}); err != nil {
		t.Fatalf("parallel dump: %v", err)
	}

	target := storage.NewMemDevice(8192)
	srcs := make([]stream.Source, 4)
	for k := range srcs {
		srcs[k] = mem[k].source()
	}
	rstats, err := Restore(ctx, RestoreOptions{Vol: target, Sources: srcs})
	if err != nil {
		t.Fatalf("parallel restore: %v", err)
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
		t.Fatalf("restored tree differs: %v", diffs[:min(3, len(diffs))])
	}
	if err := restored.MustCheck(ctx); err != nil {
		t.Fatal(err)
	}
}

// deviceDigest hashes every block of a device.
func deviceDigest(t *testing.T, dev storage.Device) [32]byte {
	t.Helper()
	h := sha256.New()
	buf := make([]byte, storage.BlockSize)
	for b := 0; b < dev.NumBlocks(); b++ {
		if err := dev.ReadBlock(ctx, b, buf); err != nil {
			t.Fatal(err)
		}
		h.Write(buf)
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// TestParallelRestoreOrderIndependence: the shard streams of one dump
// applied in any permutation (and any interleaving the scheduler picks)
// produce the identical volume image — the property that makes parallel
// restore safe.
func TestParallelRestoreOrderIndependence(t *testing.T) {
	fs, dev := parallelFS(t, 33)
	sinks := make([]stream.Sink, 4)
	mem := make([]*memSink, 4)
	for k := range sinks {
		mem[k] = &memSink{}
		sinks[k] = mem[k]
	}
	if _, err := Dump(ctx, DumpOptions{
		FS: fs, Vol: dev, SnapName: "s", Sinks: sinks, Readers: 2,
	}); err != nil {
		t.Fatal(err)
	}

	perms := [][]int{
		{0, 1, 2, 3},
		{3, 2, 1, 0},
		{2, 0, 3, 1},
		{1, 3, 0, 2},
	}
	var first [32]byte
	for pi, perm := range perms {
		target := storage.NewMemDevice(8192)
		srcs := make([]stream.Source, len(perm))
		for i, k := range perm {
			srcs[i] = mem[k].source()
		}
		if _, err := Restore(ctx, RestoreOptions{Vol: target, Sources: srcs}); err != nil {
			t.Fatalf("restore permutation %v: %v", perm, err)
		}
		d := deviceDigest(t, target)
		if pi == 0 {
			first = d
		} else if d != first {
			t.Fatalf("permutation %v produced a different volume image", perm)
		}
	}
}

// TestParallelIncrementalChain: a parallel full plus a parallel
// incremental restore the later state; the incremental's base check is
// performed once up front so sibling streams racing to install the new
// root cannot trip it.
func TestParallelIncrementalChain(t *testing.T) {
	fs, dev := parallelFS(t, 44)
	// Mutate after the full snapshot and take the incremental snapshot.
	if _, err := workload.Generate(ctx, fs, workload.Spec{Seed: 45, Files: 20, DirFanout: 4, MeanFileSize: 8 << 10}); err != nil {
		t.Fatal(err)
	}
	if err := fs.CreateSnapshot(ctx, "s2"); err != nil {
		t.Fatal(err)
	}
	sv, _ := fs.SnapshotView("s2")
	want, err := workload.TreeDigest(ctx, sv, "/")
	if err != nil {
		t.Fatal(err)
	}

	dumpPar := func(snap, base string) []stream.Source {
		sinks := make([]stream.Sink, 3)
		mem := make([]*memSink, 3)
		for k := range sinks {
			mem[k] = &memSink{}
			sinks[k] = mem[k]
		}
		if _, err := Dump(ctx, DumpOptions{
			FS: fs, Vol: dev, SnapName: snap, BaseSnapName: base, Sinks: sinks, Readers: 2,
		}); err != nil {
			t.Fatalf("parallel dump %s/%s: %v", snap, base, err)
		}
		srcs := make([]stream.Source, len(mem))
		for k := range mem {
			srcs[k] = mem[k].source()
		}
		return srcs
	}
	full := dumpPar("s", "")
	incr := dumpPar("s2", "s")

	target := storage.NewMemDevice(8192)
	if _, err := Restore(ctx, RestoreOptions{Vol: target, Sources: full}); err != nil {
		t.Fatalf("parallel full restore: %v", err)
	}
	if _, err := Restore(ctx, RestoreOptions{Vol: target, Sources: incr, ExpectIncremental: true}); err != nil {
		t.Fatalf("parallel incremental restore: %v", err)
	}

	restored, err := wafl.Mount(ctx, target, nil, wafl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := workload.TreeDigest(ctx, restored.ActiveView(), "/")
	if err != nil {
		t.Fatal(err)
	}
	if diffs := workload.DiffDigests(want, got); len(diffs) > 0 {
		t.Fatalf("incremental chain differs: %v", diffs[0])
	}
}

// TestParallelShardFaultIsolatedAndResumes: one drive of a 4-drive
// parallel dump goes offline mid-stream. The sibling shards complete,
// the failed shard comes back with a resume checkpoint, a second Dump
// (Sink + Resume) continues that shard alone, and salvage-applying the torn stream plus
// the continuation plus the siblings rebuilds the tree byte for byte.
func TestParallelShardFaultIsolatedAndResumes(t *testing.T) {
	fs, dev := parallelFS(t, 55)
	sv, _ := fs.SnapshotView("s")
	want, err := workload.TreeDigest(ctx, sv, "/")
	if err != nil {
		t.Fatal(err)
	}

	const drives = 4
	const faulted = 2
	tapes := make([]*tape.Drive, drives)
	sinks := make([]stream.Sink, drives)
	for k := range tapes {
		tapes[k] = tape.NewDrive(nil, fmt.Sprintf("t%d", k), tape.DefaultParams())
		tapes[k].AddCartridges(tape.NewCartridge(fmt.Sprintf("c%d", k)))
		if err := tapes[k].Load(nil); err != nil {
			t.Fatal(err)
		}
		sinks[k] = &logical.DriveSink{Drive: tapes[k]}
	}
	tapes[faulted].InjectFaults(tape.FaultConfig{OfflineAfterRecords: 2})

	stats, err := Dump(ctx, DumpOptions{
		FS: fs, Vol: dev, SnapName: "s", Sinks: sinks, CheckpointEvery: 16,
	})
	if err == nil {
		t.Fatal("dump with an offline drive reported success")
	}
	if !errors.Is(err, tape.ErrOffline) {
		t.Fatalf("dump error = %v, want drive offline", err)
	}
	for k, r := range stats.ShardResults {
		if k == faulted {
			if r.Err == nil {
				t.Fatalf("faulted shard %d has no error", k)
			}
			if r.Checkpoint == nil {
				t.Fatalf("faulted shard %d has no resume checkpoint", k)
			}
			if r.Checkpoint.Shard != k || r.Checkpoint.Shards != drives {
				t.Fatalf("checkpoint identity %d/%d, want %d/%d", r.Checkpoint.Shard, r.Checkpoint.Shards, k, drives)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("sibling shard %d failed too: %v", k, r.Err)
		}
		if r.BlocksDumped == 0 {
			t.Fatalf("sibling shard %d dumped nothing", k)
		}
	}

	// Resume only the torn shard onto a fresh drive.
	tapes[faulted].SetOffline(false)
	tapes[faulted].Flush(nil)
	cont := tape.NewDrive(nil, "cont", tape.DefaultParams())
	cont.AddCartridges(tape.NewCartridge("cc"))
	if err := cont.Load(nil); err != nil {
		t.Fatal(err)
	}
	// Its checkpoint names its slice of the block set, so one Sink with
	// Resume is the whole request: the complete shards are not redumped.
	torn := stats.ShardResults[faulted].Checkpoint
	stats2, err := Dump(ctx, DumpOptions{
		FS: fs, Vol: dev, SnapName: "s", Sink: &logical.DriveSink{Drive: cont},
		CheckpointEvery: 16, Resume: torn,
	})
	if err != nil {
		t.Fatalf("resumed shard dump: %v", err)
	}
	if len(stats2.ShardResults) != 1 || stats2.ShardResults[0].Shard != faulted {
		t.Fatalf("resume ran %+v, want shard %d alone", stats2.ShardResults, faulted)
	}
	if stats2.BlocksSkipped != torn.BlocksDone {
		t.Fatalf("resumed shard skipped %d, checkpoint says %d", stats2.BlocksSkipped, torn.BlocksDone)
	}
	cont.Flush(nil)

	// Restore: the three complete shard streams, the torn stream in
	// salvage mode, then the continuation.
	target := storage.NewMemDevice(8192)
	var firstPass []stream.Source
	for k := range tapes {
		tapes[k].Rewind(nil)
		firstPass = append(firstPass, logical.NewDriveSource(tapes[k], nil, 1))
	}
	r1, err := Restore(ctx, RestoreOptions{Vol: target, Sources: firstPass, Salvage: true})
	if err != nil {
		t.Fatalf("restore of faulted dump set: %v", err)
	}
	if !r1.TornTail {
		t.Fatal("torn shard stream restored without TornTail")
	}
	cont.Rewind(nil)
	if _, err := Restore(ctx, RestoreOptions{Vol: target, Source: logical.NewDriveSource(cont, nil, 1)}); err != nil {
		t.Fatalf("restoring continuation stream: %v", err)
	}

	restored, err := wafl.Mount(ctx, target, nil, wafl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := workload.TreeDigest(ctx, restored.ActiveView(), "/")
	if err != nil {
		t.Fatal(err)
	}
	if diffs := workload.DiffDigests(want, got); len(diffs) > 0 {
		t.Fatalf("resumed parallel dump restores differently: %v", diffs[0])
	}
	if err := restored.MustCheck(ctx); err != nil {
		t.Fatal(err)
	}
}
