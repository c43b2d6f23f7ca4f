package physical

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// TestImageChainPropertyRandomStates drives randomized filesystem
// evolution — generation, churn, snapshot creation and deletion — and
// after each epoch takes an incremental image dump against the
// previous one. Applying the whole chain to a blank volume must yield
// the final snapshot's exact state, every trial.
func TestImageChainPropertyRandomStates(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		seed := int64(3000 + trial*17)
		r := rand.New(rand.NewSource(seed))
		fs, dev := newFS(t, 16384)
		paths, err := workload.Generate(ctx, fs, workload.Spec{
			Seed: seed, Files: r.Intn(40) + 10, DirFanout: r.Intn(8) + 2,
			MeanFileSize: (r.Intn(16) + 2) << 10, Symlinks: r.Intn(3), Hardlinks: r.Intn(3),
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		var streams []*memSink
		prev := ""
		epochs := r.Intn(3) + 2
		for e := 0; e < epochs; e++ {
			snap := fmt.Sprintf("epoch%d", e)
			if err := fs.CreateSnapshot(ctx, snap); err != nil {
				t.Fatalf("trial %d epoch %d: %v", trial, e, err)
			}
			sink := &memSink{}
			if _, err := Dump(ctx, DumpOptions{
				FS: fs, Vol: dev, SnapName: snap, BaseSnapName: prev, Sink: sink,
			}); err != nil {
				t.Fatalf("trial %d epoch %d dump: %v", trial, e, err)
			}
			streams = append(streams, sink)
			prev = snap

			// Evolve between epochs.
			paths, err = workload.Age(ctx, fs, paths, workload.AgeSpec{
				Seed: seed + int64(e) + 1, Rounds: 1,
				ChurnPerRound: len(paths)/3 + 1, MeanFileSize: 8 << 10,
			})
			if err != nil {
				t.Fatalf("trial %d epoch %d churn: %v", trial, e, err)
			}
		}

		// Replay the chain onto a blank volume.
		target := storage.NewMemDevice(dev.NumBlocks())
		for i, s := range streams {
			if _, err := Restore(ctx, RestoreOptions{
				Vol: target, Source: s.source(), ExpectIncremental: i > 0,
			}); err != nil {
				t.Fatalf("trial %d applying stream %d: %v", trial, i, err)
			}
		}
		restored, err := wafl.Mount(ctx, target, nil, wafl.Options{})
		if err != nil {
			t.Fatalf("trial %d mount: %v", trial, err)
		}
		sv, err := fs.SnapshotView(prev)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := workload.TreeDigest(ctx, sv, "/")
		got, _ := workload.TreeDigest(ctx, restored.ActiveView(), "/")
		if diffs := workload.DiffDigests(want, got); len(diffs) > 0 {
			t.Fatalf("trial %d (%d epochs): chain restore differs: %v", trial, epochs, diffs[0])
		}
		// The restored system carries all the intermediate snapshots.
		if len(restored.Snapshots()) != epochs-1 {
			t.Fatalf("trial %d: restored %d snapshots, want %d",
				trial, len(restored.Snapshots()), epochs-1)
		}
		if err := restored.MustCheck(ctx); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestShardedDumpCoversExactlyOnce verifies shard partitioning: the
// streams of an n-sink dump carry, between them, every block of the
// set exactly once, in order.
func TestShardedDumpCoversExactlyOnce(t *testing.T) {
	fs, dev := newFS(t, 8192)
	workload.Generate(ctx, fs, workload.Spec{Seed: 77, Files: 30, DirFanout: 6, MeanFileSize: 8 << 10})
	fs.CreateSnapshot(ctx, "s")
	words, _ := fs.SnapshotBlockMapWords(ctx, "s")
	all := IncrementalBlocks(words, nil)

	for _, shards := range []int{1, 2, 3, 5} {
		sinks := make([]stream.Sink, shards)
		mem := make([]*memSink, shards)
		for k := range sinks {
			mem[k] = &memSink{}
			sinks[k] = mem[k]
		}
		st, err := Dump(ctx, DumpOptions{FS: fs, Vol: dev, SnapName: "s", Sinks: sinks})
		if err != nil {
			t.Fatal(err)
		}
		if st.BlocksDumped != len(all) {
			t.Fatalf("%d shards dumped %d blocks, want %d", shards, st.BlocksDumped, len(all))
		}
		var got []uint32
		for k := range mem {
			got = append(got, streamBlocks(t, mem[k])...)
		}
		if len(got) != len(all) {
			t.Fatalf("%d shards: streams carry %d blocks, want %d", shards, len(got), len(all))
		}
		for i := range got {
			if got[i] != all[i] {
				t.Fatalf("%d shards: block %d of the set is %d on tape, want %d", shards, i, got[i], all[i])
			}
		}
	}
	// A resume checkpoint naming a slice that cannot exist is rejected.
	if _, err := Dump(ctx, DumpOptions{
		FS: fs, Vol: dev, SnapName: "s", Sink: &memSink{},
		Resume: &Checkpoint{Gen: fs.Generation(), Shard: 5, Shards: 4},
	}); err == nil {
		t.Fatal("bad shard accepted")
	}
}

// streamBlocks parses an image stream's extent headers into the block
// numbers it carries, in stream order.
func streamBlocks(t *testing.T, s *memSink) []uint32 {
	t.Helper()
	b := streamBytes(s)
	le := binary.LittleEndian
	off := headerFixed + int(le.Uint32(b[44:]))
	var out []uint32
	for {
		bno, count := le.Uint32(b[off:]), le.Uint32(b[off+4:])
		off += 8
		switch bno {
		case EndSentinel:
			return out
		case CkptSentinel:
			continue
		}
		for i := uint32(0); i < count; i++ {
			out = append(out, bno+i)
		}
		off += int(count) * storage.BlockSize
	}
}
