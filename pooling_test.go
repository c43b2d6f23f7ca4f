// Property test for the pooled data path: dump streams must be
// byte-identical with buffer pooling on and off. Any aliasing bug —
// a layer retaining or scribbling on a recycled buffer — shows up as
// a stream diff here, for both engines, full and incremental.
package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/storage"
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

func TestPoolingDoesNotChangeStreams(t *testing.T) {
	if !bufpool.Enabled() {
		t.Fatal("pooling should start enabled")
	}
	pooled, _ := buildAndDump(t)

	bufpool.SetEnabled(false)
	defer bufpool.SetEnabled(true)
	plain, _ := buildAndDump(t)

	names := []string{"logical full", "logical level 1", "physical full", "physical incremental"}
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
