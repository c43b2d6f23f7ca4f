package physical

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"repro/internal/stream"
	"repro/internal/workload"
)

// goldenStreams are the SHA-256 digests of the image streams written at
// commit 060a7c4 — before the shard data path moved onto
// pipeline.Fanout and the caller-driven Shard/Shards mode, which wrote
// the 4-shard set one single-Sink dump at a time, was deleted — for the
// fixed-seed fixtures below. The surviving path must reproduce them at
// any reader count and read-ahead depth.
var goldenStreams = map[string]string{
	"single":      "d94a5d9528cc60102e90050f79927cf59a09f417615d6b4d454ae81a8eb7ef84",
	"single-ckpt": "23c7d8722f194456184532992aa1dcb80507f386676a3b80356a78e098ffbddb",
	"shard0":      "389a5ce01e92f854edb579559a70b43102ff5e92092449e5ce559eefe0fb8970",
	"shard1":      "677d9833fc552de5016ccd7e88633eeb5d744dbb0fae23ca3cd27018e1aa045b",
	"shard2":      "82dd873171f03e744afa806284decd76072571d0655522930757d1ca427b224f",
	"shard3":      "78715bd8cb62ff2601ed74f5bb8726ae24bba4b63b8cd695a59889030bd7dfd5",
	"incremental": "53a9ffb634f4d0a77b500759883b8c39d85061f39965dc105be08d2990a9229a",
}

func checkGolden(t *testing.T, name string, s *memSink) {
	t.Helper()
	if got := fmt.Sprintf("%x", sha256.Sum256(streamBytes(s))); got != goldenStreams[name] {
		t.Errorf("%s: stream digest %s, want %s", name, got, goldenStreams[name])
	}
}

// TestGoldenStreams: at Readers 1 and 3 the one data path writes, byte
// for byte, the recorded streams — a single stream with and without
// checkpoints, the four streams of a 4-sink dump, and an incremental.
// Parallelism changes only the clock, never the tape.
func TestGoldenStreams(t *testing.T) {
	for _, readers := range []int{1, 3} {
		t.Run(fmt.Sprintf("readers%d", readers), func(t *testing.T) {
			fs, dev := parallelFS(t, 7)
			one := func(name string, o DumpOptions) {
				t.Helper()
				s := &memSink{}
				o.FS, o.Vol, o.Sink, o.Readers, o.ReadAhead = fs, dev, s, readers, readers-1
				if _, err := Dump(ctx, o); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkGolden(t, name, s)
			}
			one("single", DumpOptions{SnapName: "s"})
			one("single-ckpt", DumpOptions{SnapName: "s", CheckpointEvery: 32})

			const drives = 4
			sinks := make([]stream.Sink, drives)
			mem := make([]*memSink, drives)
			for k := range sinks {
				mem[k] = &memSink{}
				sinks[k] = mem[k]
			}
			stats, err := Dump(ctx, DumpOptions{
				FS: fs, Vol: dev, SnapName: "s", Sinks: sinks,
				Readers: readers, ReadAhead: readers - 1, CheckpointEvery: 32,
			})
			if err != nil {
				t.Fatalf("4-sink dump: %v", err)
			}
			if len(stats.ShardResults) != drives {
				t.Fatalf("ShardResults = %d entries, want %d", len(stats.ShardResults), drives)
			}
			sum := 0
			for k := range mem {
				checkGolden(t, fmt.Sprintf("shard%d", k), mem[k])
				sum += stats.ShardResults[k].BlocksDumped
			}
			if sum != stats.BlocksDumped || sum == 0 {
				t.Errorf("shard blocks sum %d != total %d", sum, stats.BlocksDumped)
			}
			// A checkpoint names its slice: resuming shard k from zero
			// progress onto a single sink rewrites shard k's stream.
			for k := 0; k < drives; k++ {
				one(fmt.Sprintf("shard%d", k), DumpOptions{
					SnapName: "s", CheckpointEvery: 32,
					Resume: &Checkpoint{Gen: stats.Gen, Shard: k, Shards: drives},
				})
			}

			if _, err := workload.Generate(ctx, fs, workload.Spec{Seed: 45, Files: 20, DirFanout: 4, MeanFileSize: 8 << 10}); err != nil {
				t.Fatal(err)
			}
			if err := fs.CreateSnapshot(ctx, "s2"); err != nil {
				t.Fatal(err)
			}
			one("incremental", DumpOptions{SnapName: "s2", BaseSnapName: "s"})
		})
	}
}

// TestReadersDoNotChangeStream sweeps the reader count (past the plan
// length) and the read-ahead depth.
func TestReadersDoNotChangeStream(t *testing.T) {
	fs, dev := parallelFS(t, 7)
	for _, rd := range [][2]int{{0, 0}, {1, 4}, {2, 1}, {5, 3}, {64, 2}, {4096, 1}} {
		s := &memSink{}
		if _, err := Dump(ctx, DumpOptions{
			FS: fs, Vol: dev, SnapName: "s", Sink: s,
			Readers: rd[0], ReadAhead: rd[1], CheckpointEvery: 32,
		}); err != nil {
			t.Fatalf("readers %d depth %d: %v", rd[0], rd[1], err)
		}
		checkGolden(t, "single-ckpt", s)
	}
}

// failSink fails every write.
type failSink struct{}

func (failSink) WriteRecord([]byte) error { return errors.New("drive on fire") }
func (failSink) NextVolume() error        { return errors.New("drive on fire") }

// TestFailedStreamAlwaysReturnsCheckpoint: a stream that dies before
// anything is durable — here with checkpoints off and on its very first
// record — still hands back a checkpoint (zero progress), so the resume
// path is total: resuming from it writes the whole stream.
func TestFailedStreamAlwaysReturnsCheckpoint(t *testing.T) {
	fs, dev := parallelFS(t, 7)
	stats, err := Dump(ctx, DumpOptions{FS: fs, Vol: dev, SnapName: "s", Sink: failSink{}})
	if err == nil || stats == nil || stats.Checkpoint == nil {
		t.Fatalf("failed dump returned stats %+v, err %v", stats, err)
	}
	if c := stats.Checkpoint; c.BlocksDone != 0 || c.Shard != 0 || c.Shards != 0 {
		t.Fatalf("zero-progress checkpoint = %+v", c)
	}
	s := &memSink{}
	st2, err := Dump(ctx, DumpOptions{FS: fs, Vol: dev, SnapName: "s", Sink: s, Resume: stats.Checkpoint})
	if err != nil || st2.BlocksSkipped != 0 {
		t.Fatalf("resume from zero progress: skipped %d, err %v", st2.BlocksSkipped, err)
	}
	checkGolden(t, "single", s)

	sinks := []stream.Sink{&memSink{}, failSink{}}
	stats, err = Dump(ctx, DumpOptions{FS: fs, Vol: dev, SnapName: "s", Sinks: sinks})
	if err == nil || stats.ShardResults[0].Err != nil {
		t.Fatalf("2-sink dump with one dead sink: err %v, sibling %v", err, stats.ShardResults[0].Err)
	}
	if c := stats.ShardResults[1].Checkpoint; c == nil || c.BlocksDone != 0 || c.Shard != 1 || c.Shards != 2 {
		t.Fatalf("dead shard's checkpoint = %+v", c)
	}
}
