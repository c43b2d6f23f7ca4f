package storage

import (
	"context"
	"testing"
)

// BenchmarkMemRunRead measures MemDevice's lock-once bulk read path,
// the floor every higher layer's run I/O builds on.
func BenchmarkMemRunRead(b *testing.B) {
	const nblocks = 4096
	const run = 512
	d := NewMemDevice(nblocks)
	ctx := context.Background()
	buf := make([]byte, run*BlockSize)
	for bno := 0; bno+run <= nblocks; bno += run {
		if err := d.WriteRun(ctx, bno, run, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(run * BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	bno := 0
	for i := 0; i < b.N; i++ {
		if bno+run > nblocks {
			bno = 0
		}
		if err := d.ReadRun(ctx, bno, run, buf); err != nil {
			b.Fatal(err)
		}
		bno += run
	}
}
