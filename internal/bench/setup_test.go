package bench

import (
	"context"
	"testing"
)

// BenchmarkAgedVolume builds, once per iteration, the volume a
// benchmark workload dumps: buildFiler's filer sized for a 64 MiB
// dataset, populated and aged four rounds, committed and snapshotted.
// It is the set-up half of logical-4d and physical-4d without the
// per-seed rewrite; `make setup-profile` profiles it.
func BenchmarkAgedVolume(b *testing.B) {
	ctx := context.Background()
	cfg := Config{DataMB: 64, Seed: 1999, AgeRounds: 4}
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
}
