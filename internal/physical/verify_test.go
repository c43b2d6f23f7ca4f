package physical

import (
	"errors"
	"testing"

	"repro/internal/workload"
)

func TestVerifyStreamClean(t *testing.T) {
	fs, dev := newFS(t, 4096)
	workload.Generate(ctx, fs, workload.Spec{Seed: 41, Files: 20, DirFanout: 5, MeanFileSize: 8 << 10})
	fs.CreateSnapshot(ctx, "s")
	sink := imageDump(t, fs, dev, "s", "")

	check, err := VerifyStream(ctx, sink.source())
	if err != nil {
		t.Fatal(err)
	}
	if check.BlockCount == 0 || check.Extents == 0 {
		t.Fatalf("empty check: %+v", check)
	}
	if check.NBlocks != uint64(dev.NumBlocks()) {
		t.Fatalf("geometry %d, want %d", check.NBlocks, dev.NumBlocks())
	}
	if check.BaseGen != 0 {
		t.Fatalf("full stream reports base gen %d", check.BaseGen)
	}
}

func TestVerifyStreamDetectsBitRot(t *testing.T) {
	fs, dev := newFS(t, 4096)
	fs.WriteFile(ctx, "/f", make([]byte, 256<<10), 0644)
	fs.CreateSnapshot(ctx, "s")
	sink := imageDump(t, fs, dev, "s", "")
	sink.recs[len(sink.recs)/2][77] ^= 1
	if _, err := VerifyStream(ctx, sink.source()); err == nil {
		t.Fatal("bit rot passed verification")
	}
}

func TestVerifyStreamDetectsTruncation(t *testing.T) {
	fs, dev := newFS(t, 4096)
	fs.WriteFile(ctx, "/f", make([]byte, 256<<10), 0644)
	fs.CreateSnapshot(ctx, "s")
	sink := imageDump(t, fs, dev, "s", "")
	sink.recs = sink.recs[:len(sink.recs)-1]
	if _, err := VerifyStream(ctx, sink.source()); err == nil {
		t.Fatal("truncated stream passed verification")
	}
}

func TestVerifyStreamIncrementalIdentity(t *testing.T) {
	fs, dev := newFS(t, 4096)
	fs.WriteFile(ctx, "/a", []byte("a"), 0644)
	fs.CreateSnapshot(ctx, "s1")
	fs.WriteFile(ctx, "/b", []byte("b"), 0644)
	fs.CreateSnapshot(ctx, "s2")
	inc := imageDump(t, fs, dev, "s2", "s1")
	check, err := VerifyStream(ctx, inc.source())
	if err != nil {
		t.Fatal(err)
	}
	if check.BaseGen == 0 {
		t.Fatal("incremental stream reports no base")
	}
	s1, _ := fs.Snapshot("s1")
	if check.BaseGen != s1.Gen {
		t.Fatalf("base gen %d, want %d", check.BaseGen, s1.Gen)
	}
}

func TestStreamInfoReplaysWholeStream(t *testing.T) {
	fs, dev := newFS(t, 4096)
	workload.Generate(ctx, fs, workload.Spec{Seed: 42, Files: 15, DirFanout: 4, MeanFileSize: 4 << 10})
	fs.CreateSnapshot(ctx, "s")
	sink := imageDump(t, fs, dev, "s", "")

	nblocks, gen, baseGen, replay, err := StreamInfo(sink.source())
	if err != nil {
		t.Fatal(err)
	}
	if nblocks != uint64(dev.NumBlocks()) || baseGen != 0 || gen == 0 {
		t.Fatalf("StreamInfo = (%d, %d, %d)", nblocks, gen, baseGen)
	}
	// The replay source must yield a stream that still verifies.
	if _, err := VerifyStream(ctx, replay); err != nil {
		t.Fatalf("replayed stream broken: %v", err)
	}
}

func TestStreamInfoRejectsGarbage(t *testing.T) {
	src := &memSource{recs: [][]byte{make([]byte, 100)}}
	if _, _, _, _, err := StreamInfo(src); !errors.Is(err, ErrBadStream) {
		t.Fatalf("err = %v, want ErrBadStream", err)
	}
}
