package vdev

import (
	"context"
	"testing"

	"repro/internal/storage"
)

const benchRun = 512 // blocks per run, matching the image-dump run size

// diskRunReadStep seeds an untimed disk and returns one iteration of
// the bulk read loop, shared by the benchmark that times it and the
// test that counts its allocations.
func diskRunReadStep(tb testing.TB) func() {
	const nblocks = 8192
	d := New(nil, "bench", nblocks, DefaultParams())
	ctx := context.Background()
	buf := make([]byte, benchRun*storage.BlockSize)
	for i := range buf {
		buf[i] = byte(i)
	}
	for bno := 0; bno+benchRun <= nblocks; bno += benchRun {
		if err := d.WriteRun(ctx, bno, benchRun, buf); err != nil {
			tb.Fatal(err)
		}
	}
	bno := 0
	return func() {
		if bno+benchRun > nblocks {
			bno = 0
		}
		if err := storage.ReadRun(ctx, d, bno, benchRun, buf); err != nil {
			tb.Fatal(err)
		}
		bno += benchRun
	}
}

// BenchmarkDiskRunRead measures a single simulated disk's bulk read
// path (untimed), the layer below RAID striping.
func BenchmarkDiskRunRead(b *testing.B) {
	step := diskRunReadStep(b)
	b.SetBytes(benchRun * storage.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

func TestDiskRunReadZeroAlloc(t *testing.T) {
	if n := testing.AllocsPerRun(100, diskRunReadStep(t)); n != 0 {
		t.Fatalf("ReadRun over Disk: %v allocs per run, want 0", n)
	}
}
