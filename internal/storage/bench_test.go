package storage

import (
	"context"
	"testing"
)

const benchRun = 512 // blocks per run, matching the image-dump run size

// memRunReadStep seeds a MemDevice and returns one iteration of the
// lock-once bulk read loop, shared by the benchmark that times it and
// the test that counts its allocations.
func memRunReadStep(tb testing.TB) func() {
	const nblocks = 4096
	d := NewMemDevice(nblocks)
	ctx := context.Background()
	buf := make([]byte, benchRun*BlockSize)
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
		if err := ReadRun(ctx, d, bno, benchRun, buf); err != nil {
			tb.Fatal(err)
		}
		bno += benchRun
	}
}

// BenchmarkMemRunRead measures MemDevice's lock-once bulk read path,
// the floor every higher layer's run I/O builds on.
func BenchmarkMemRunRead(b *testing.B) {
	step := memRunReadStep(b)
	b.SetBytes(benchRun * BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

func TestMemRunReadZeroAlloc(t *testing.T) {
	if n := testing.AllocsPerRun(100, memRunReadStep(t)); n != 0 {
		t.Fatalf("ReadRun over MemDevice: %v allocs per run, want 0", n)
	}
}
