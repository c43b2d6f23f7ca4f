package raid

import (
	"context"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/storage"
	"repro/internal/vdev"
)

const benchRun = 512 // blocks per run, matching the image-dump run size

// benchVolume builds an untimed volume shaped like a small RAID-4
// array and seeds it with data so run reads hit written blocks.
func benchVolume(tb testing.TB) *Volume {
	tb.Helper()
	v, err := Build(nil, "bench", Config{
		Groups:            2,
		DataDisksPerGroup: 4,
		BlocksPerDisk:     4096,
		DiskParams:        vdev.DefaultParams(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	buf := make([]byte, benchRun*storage.BlockSize)
	for i := range buf {
		buf[i] = byte(i)
	}
	for bno := 0; bno+benchRun <= v.NumBlocks(); bno += benchRun {
		if err := v.WriteRun(ctx, bno, benchRun, buf); err != nil {
			tb.Fatal(err)
		}
	}
	return v
}

// runStep returns one iteration of a sequential run-I/O loop over a
// seeded volume — ReadRun or WriteRun, wrapping at the end — shared by
// the benchmarks that time it and the tests that count its allocations.
func runStep(tb testing.TB, write bool) func() {
	v := benchVolume(tb)
	ctx := context.Background()
	buf := make([]byte, benchRun*storage.BlockSize)
	// Warm each group's de-striping scratch so the loop measures the
	// steady state: run reads allocate nothing once warm.
	for _, g := range v.Groups() {
		if err := storage.ReadRun(ctx, g, 0, benchRun, buf); err != nil {
			tb.Fatal(err)
		}
	}
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	io := v.ReadRun
	if write {
		io = v.WriteRun
	}
	bno := 0
	return func() {
		if bno+benchRun > v.NumBlocks() {
			bno = 0
		}
		if err := io(ctx, bno, benchRun, buf); err != nil {
			tb.Fatal(err)
		}
		bno += benchRun
	}
}

func benchRunIO(b *testing.B, write bool) {
	step := runStep(b, write)
	b.SetBytes(benchRun * storage.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkRunRead measures the bulk sequential read path image dump
// streams through: volume → group striping → member disks.
func BenchmarkRunRead(b *testing.B) { benchRunIO(b, false) }

// BenchmarkRunWrite measures the bulk sequential write path image
// restore streams through, including full-stripe parity computation.
func BenchmarkRunWrite(b *testing.B) { benchRunIO(b, true) }

func TestRunIOZeroAlloc(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("pooled scratch is not allocation-free under the race detector")
	}
	for name, write := range map[string]bool{"ReadRun": false, "WriteRun": true} {
		if n := testing.AllocsPerRun(20, runStep(t, write)); n != 0 {
			t.Errorf("Volume.%s: %v allocs per run, want 0", name, n)
		}
	}
}

// BenchmarkXorInto is the rate of parity arithmetic: one block XORed
// into another, as every parity update and reconstruction does.
func BenchmarkXorInto(b *testing.B) {
	dst := make([]byte, storage.BlockSize)
	src := make([]byte, storage.BlockSize)
	for i := range src {
		src[i] = byte(i * 13)
	}
	b.SetBytes(storage.BlockSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		xorInto(dst, src)
	}
}
