package logical

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/wafl"
)

// goldenStreams are the SHA-256 digests of the streams the sequential
// Phase III/IV engine (deleted when every dump moved onto the
// pipelined path) wrote for the fixed-seed fixtures
// below, recorded at commit 060a7c4 with single-Sink dumps — the 4-shard
// set with its caller-driven Shard/Shards mode. They are the reference
// the surviving path must reproduce at any reader count.
var goldenStreams = map[string]string{
	"single":      "e0326a1e5a34bc852475b36df2d7d1c4e52fde83428dd9bc13ae7a3c4b8bf432",
	"single-ckpt": "1dc52c9fc2320291577a5ad1e84164ca4f1da9df41c57a4448337141b5475c21",
	"shard0":      "c0c7bd874fa44ae5bfb89c5f64b85ebd6497c1e701fd87b544b8e01775ab9b8c",
	"shard1":      "1391dea867c7c7aeb44d18dde45ddc693c4fee726491133736a8a9d1ad868fa3",
	"shard2":      "b9c2ef0fb9258b322f6a16643dd3c99603107aaa17f11089353242338ac85f3e",
	"shard3":      "58bd356a3ed30e69837e649eda991dafe55603031847f1683c8aadd9b845eeb3",
	"level1":      "285a2423a06997b220c66454bb490f0efa6ddf31086d94e36496624897a718a6",
	"damaged":     "04c2906c2b5f5f72b28397c708eda85f87a07e234627d57b1645f9d44080f2fd",

	// Recorded at commit ff00062, whose Phase I was a demand-reading
	// queue walk: what the frontier-batched walk must map, name and
	// order identically. "x.index" is the digest of x's file index, once
	// spelled by the dump from Phase I's maps, now derived from stream x.
	"single.index":         "eb4edf707075febf49040582077928dfcf2943022f21ed35e4bab97875db5a50",
	"snap-subtree":         "6dd9d0bf95badd2b62a3de2e67fe5223f15056e56a7071b2e4062df74cc10530",
	"snap-subtree.index":   "39f044aae896876d1688a1f6202beb482273300c3de3ce76dbd22bb42347486b",
	"snap-exclude":         "ba2fbd746218437654608f7f23feb94ddbbc5eebfbca1cf9f72a0b37a2f1dcc1",
	"snap-exclude.index":   "98b1d4c0512b3b8476ab366799ba9567c0cd5fbc7a47cc479b675a374571f4ce",
	"active":               "3094c303afae1fea9d89afe9b5ed0c41f173b7a6bbc3c7d38b76131bdbc6708c",
	"active.index":         "2ecbae3dc511293e56e410356f8fa605c09fcbe8bf79bf653f441097613f82ab",
	"active-subtree":       "4ac219bf8334cd4418efe27f1b96592536c05147cec1fe33646f201d1acd99a5",
	"active-subtree.index": "39f044aae896876d1688a1f6202beb482273300c3de3ce76dbd22bb42347486b",
	"active-exclude":       "214661f73d6a32009f9dfb250a1cbffb6cfec18ecaac780940364baf9f866588",
	"active-exclude.index": "91a4f1ed1cda6125f6fdf6532c2a9d86542d9c67b6efb17259c172304450e898",
}

func checkGolden(t *testing.T, name string, s *memSink) {
	t.Helper()
	if got := fmt.Sprintf("%x", sha256.Sum256(s.bytes())); got != goldenStreams[name] {
		t.Errorf("%s: stream digest %s, want %s", name, got, goldenStreams[name])
	}
}

// damagedBlockFS is a two-file volume whose victim file has one
// unreadable block (fbn 3), remounted so the dump reads the device.
func damagedBlockFS(t *testing.T) (view *wafl.View, ino wafl.Inum, content []byte) {
	t.Helper()
	fd := storage.NewFaultDevice(storage.NewMemDevice(8192))
	fs, err := wafl.Mkfs(ctx, fd, nil, wafl.Options{CacheBlocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	content = make([]byte, 64<<10)
	for i := range content {
		content[i] = byte(i%251 + 1) // nonzero, so a holed block differs
	}
	if _, err := fs.WriteFile(ctx, "/d/victim.dat", content, 0644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteFile(ctx, "/d/bystander.dat", content[:20<<10], 0644); err != nil {
		t.Fatal(err)
	}
	if err := fs.CP(ctx); err != nil {
		t.Fatal(err)
	}
	if fs, err = wafl.Mount(ctx, fd, nil, wafl.Options{CacheBlocks: 16}); err != nil {
		t.Fatal(err)
	}
	view = fs.ActiveView()
	if ino, err = view.Namei(ctx, "/d/victim.dat"); err != nil {
		t.Fatal(err)
	}
	pbn, err := view.BlockAt(ctx, ino, damagedFbn)
	if err != nil {
		t.Fatal(err)
	}
	if pbn == 0 {
		t.Fatal("victim fbn is a hole")
	}
	fd.FailRead(int(pbn), storage.ErrLatentSector)
	return view, ino, content
}

const damagedFbn = 3

// TestGoldenStreams: at Readers 1 and 3 the one data path writes,
// byte for byte, the streams the sequential engine wrote — a single
// stream with and without checkpoints, the four streams of a 4-sink
// dump, a level-1 incremental, and a stream with a hole-mapped damaged
// block. Parallelism changes only the clock.
func TestGoldenStreams(t *testing.T) {
	for _, readers := range []int{1, 3} {
		t.Run(fmt.Sprintf("readers%d", readers), func(t *testing.T) {
			src, sv := parallelLogicalFS(t, 71)
			one := func(name string, o DumpOptions) {
				t.Helper()
				s := &memSink{}
				o.Sink, o.Label, o.ReadAhead, o.Readers = s, "gold", 8, readers
				if _, err := Dump(ctx, o); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkGolden(t, name, s)
				if _, ok := goldenStreams[name+".index"]; !ok {
					return
				}
				// The file index the stream itself yields: its directories
				// name each file the way Phase I reached it (first
				// hard-link name wins).
				index := &memSink{}
				if _, err := Index(s.source(), func(path string, ino wafl.Inum, _ int64) {
					index.recs = append(index.recs, []byte(fmt.Sprintf("%d %s\n", ino, path)))
				}); err != nil {
					t.Fatalf("%s: index: %v", name, err)
				}
				checkGolden(t, name+".index", index)
			}
			one("single", DumpOptions{View: sv})
			one("single-ckpt", DumpOptions{View: sv, CheckpointEvery: 3})

			const nShards = 4
			sinks := make([]stream.Sink, nShards)
			mem := make([]*memSink, nShards)
			for k := range sinks {
				mem[k] = &memSink{}
				sinks[k] = mem[k]
			}
			stats, err := Dump(ctx, DumpOptions{
				View: sv, Sinks: sinks, Label: "gold", ReadAhead: 8,
				Readers: readers, CheckpointEvery: 3,
			})
			if err != nil {
				t.Fatalf("4-sink dump: %v", err)
			}
			if len(stats.ShardResults) != nShards {
				t.Fatalf("ShardResults = %d entries, want %d", len(stats.ShardResults), nShards)
			}
			files, bytes := 0, int64(0)
			for k, r := range stats.ShardResults {
				if r.Err != nil {
					t.Fatalf("shard %d: %v", k, r.Err)
				}
				files += r.FilesDumped
				bytes += r.BytesWritten
				checkGolden(t, fmt.Sprintf("shard%d", k), mem[k])
			}
			if files != stats.FilesDumped || bytes != stats.BytesWritten || files == 0 {
				t.Fatalf("shard sums files=%d bytes=%d != totals files=%d bytes=%d",
					files, bytes, stats.FilesDumped, stats.BytesWritten)
			}
			// A checkpoint names its slice: resuming shard k from zero
			// progress onto a single sink rewrites shard k's stream.
			for k := 0; k < nShards; k++ {
				one(fmt.Sprintf("shard%d", k), DumpOptions{
					View: sv, CheckpointEvery: 3,
					Resume: &Checkpoint{Date: stats.Date, Shard: k, Shards: nShards},
				})
			}

			dates := NewDumpDates()
			one("single", DumpOptions{View: sv, Dates: dates, FSID: "g"})
			if _, err := src.WriteFile(ctx, "/inc/new.txt", []byte("new since full"), 0644); err != nil {
				t.Fatal(err)
			}
			if err := src.CreateSnapshot(ctx, "s2"); err != nil {
				t.Fatal(err)
			}
			sv2, _ := src.SnapshotView("s2")
			one("level1", DumpOptions{View: sv2, Level: 1, Dates: dates, FSID: "g"})

			dv, _, _ := damagedBlockFS(t)
			one("damaged", DumpOptions{View: dv})

			// Phase I's walk, by what it leaves in the stream (both inode
			// maps, every directory's entries in order) and in the index:
			// whole volume, one subtree, and a name filter, of a frozen
			// view and of the active one with a staged file in it.
			noDigits := func(name string) bool { return strings.ContainsAny(name, "37") }
			one("snap-subtree", DumpOptions{View: sv2, Subtree: "/d2"})
			one("snap-exclude", DumpOptions{View: sv2, Exclude: noDigits})
			if _, err := src.WriteFile(ctx, "/inc/staged.txt", []byte("not yet on disk"), 0644); err != nil {
				t.Fatal(err)
			}
			av := src.ActiveView()
			one("active", DumpOptions{View: av})
			one("active-subtree", DumpOptions{View: av, Subtree: "/d2"})
			one("active-exclude", DumpOptions{View: av, Exclude: noDigits})
		})
	}
}

// TestReadersDoNotChangeStream sweeps the reader count past the plan
// length on both the single-stream and the sharded shape.
func TestReadersDoNotChangeStream(t *testing.T) {
	_, sv := parallelLogicalFS(t, 71)
	for _, readers := range []int{0, 1, 2, 5, 64, 4096} {
		s := &memSink{}
		if _, err := Dump(ctx, DumpOptions{
			View: sv, Sink: s, Label: "gold", ReadAhead: 8, Readers: readers, CheckpointEvery: 3,
		}); err != nil {
			t.Fatalf("readers %d: %v", readers, err)
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
	_, sv := parallelLogicalFS(t, 71)
	stats, err := Dump(ctx, DumpOptions{View: sv, Sink: failSink{}, Label: "gold", ReadAhead: 8})
	if err == nil || stats == nil || stats.Checkpoint == nil {
		t.Fatalf("failed dump returned stats %+v, err %v", stats, err)
	}
	if c := stats.Checkpoint; c.LastIno != 0 || c.Shard != 0 || c.Shards != 0 {
		t.Fatalf("zero-progress checkpoint = %+v", c)
	}
	s := &memSink{}
	st2, err := Dump(ctx, DumpOptions{View: sv, Sink: s, Label: "gold", ReadAhead: 8, Resume: stats.Checkpoint})
	if err != nil || st2.FilesSkipped != 0 {
		t.Fatalf("resume from zero progress: skipped %d, err %v", st2.FilesSkipped, err)
	}
	checkGolden(t, "single", s)

	sinks := []stream.Sink{&memSink{}, failSink{}}
	stats, err = Dump(ctx, DumpOptions{View: sv, Sinks: sinks, Label: "gold", ReadAhead: 8})
	if err == nil || stats.ShardResults[0].Err != nil {
		t.Fatalf("2-sink dump with one dead sink: err %v, sibling %v", err, stats.ShardResults[0].Err)
	}
	if c := stats.ShardResults[1].Checkpoint; c == nil || c.LastIno != 0 || c.Shard != 1 || c.Shards != 2 {
		t.Fatalf("dead shard's checkpoint = %+v", c)
	}
}
