package bench

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkAgedVolume builds, once per iteration, the volume a
// benchmark workload dumps: buildFiler's filer sized for the dataset,
// populated and aged four rounds, committed and snapshotted. At 64 MiB
// it is the set-up half of logical-4d and physical-4d without the
// per-seed rewrite; `make setup-profile` profiles that size. The
// 16 MiB build is the second size a host cost that may grow with the
// volume is measured at. The generator draws on a goroutine of its
// own, so ns/op is wall time per build and a CPU profile's total is
// the CPU time of both goroutines.
func BenchmarkAgedVolume(b *testing.B) {
	for _, mb := range []int{16, 64} {
		b.Run(fmt.Sprintf("%dMiB", mb), func(b *testing.B) {
			ctx := context.Background()
			cfg := Config{DataMB: mb, Seed: 1999, AgeRounds: 4}
			b.SetBytes(int64(cfg.DataMB) << 20)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f, err := buildFiler(ctx, cfg, "bench", 1, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				if err := populate(ctx, f, cfg, "", 0); err != nil {
					b.Fatal(err)
				}
				if err := f.FS.CP(ctx); err != nil {
					b.Fatal(err)
				}
				if err := f.FS.CreateSnapshot(ctx, "dump"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
