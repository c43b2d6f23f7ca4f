package raid

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/vdev"
)

func newTestGroup(t *testing.T, nData, blocksPerDisk int) *Group {
	t.Helper()
	var data []Disk
	for i := 0; i < nData; i++ {
		data = append(data, vdev.New(nil, "d", blocksPerDisk, vdev.DefaultParams()))
	}
	g, err := NewGroup(data, vdev.New(nil, "p", blocksPerDisk, vdev.DefaultParams()))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func block(seed int) []byte {
	b := make([]byte, storage.BlockSize)
	r := rand.New(rand.NewSource(int64(seed)))
	r.Read(b)
	return b
}

func TestGroupRoundTrip(t *testing.T) {
	ctx := context.Background()
	g := newTestGroup(t, 4, 16)
	if g.NumBlocks() != 64 {
		t.Fatalf("NumBlocks = %d, want 64", g.NumBlocks())
	}
	for bno := 0; bno < 64; bno++ {
		if err := g.WriteBlock(ctx, bno, block(bno)); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, storage.BlockSize)
	for bno := 0; bno < 64; bno++ {
		if err := g.ReadBlock(ctx, bno, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, block(bno)) {
			t.Fatalf("block %d mismatch", bno)
		}
	}
}

func TestParityIsExact(t *testing.T) {
	ctx := context.Background()
	g := newTestGroup(t, 3, 8)
	// Random writes, including overwrites.
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		bno := r.Intn(g.NumBlocks())
		if err := g.WriteBlock(ctx, bno, block(i)); err != nil {
			t.Fatal(err)
		}
	}
	bad, err := g.VerifyParity(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("parity wrong for stripes at blocks %v", bad)
	}
}

func TestDegradedRead(t *testing.T) {
	ctx := context.Background()
	g := newTestGroup(t, 4, 8)
	for bno := 0; bno < g.NumBlocks(); bno++ {
		if err := g.WriteBlock(ctx, bno, block(bno)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, storage.BlockSize)
	for bno := 0; bno < g.NumBlocks(); bno++ {
		if err := g.ReadBlock(ctx, bno, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, block(bno)) {
			t.Fatalf("degraded read of block %d mismatch", bno)
		}
	}
}

func TestDegradedWriteThenRead(t *testing.T) {
	ctx := context.Background()
	g := newTestGroup(t, 3, 8)
	for bno := 0; bno < g.NumBlocks(); bno++ {
		if err := g.WriteBlock(ctx, bno, block(bno)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	// Overwrite blocks that live on the failed disk: parity must absorb them.
	for bno := 1; bno < g.NumBlocks(); bno += 3 { // disk = bno % 3 == 1
		if err := g.WriteBlock(ctx, bno, block(1000+bno)); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, storage.BlockSize)
	for bno := 1; bno < g.NumBlocks(); bno += 3 {
		if err := g.ReadBlock(ctx, bno, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, block(1000+bno)) {
			t.Fatalf("degraded write of block %d lost", bno)
		}
	}
}

func TestDoubleFailureRejected(t *testing.T) {
	g := newTestGroup(t, 4, 8)
	if err := g.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	if err := g.FailDisk(1); !errors.Is(err, ErrDoubleFailure) {
		t.Fatalf("second failure err = %v, want ErrDoubleFailure", err)
	}
}

func TestRebuild(t *testing.T) {
	ctx := context.Background()
	g := newTestGroup(t, 4, 8)
	for bno := 0; bno < g.NumBlocks(); bno++ {
		if err := g.WriteBlock(ctx, bno, block(bno)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.FailDisk(3); err != nil {
		t.Fatal(err)
	}
	repl := vdev.New(nil, "repl", 8, vdev.DefaultParams())
	if err := g.Rebuild(ctx, repl); err != nil {
		t.Fatal(err)
	}
	// Healthy again: reads come from the replacement directly.
	buf := make([]byte, storage.BlockSize)
	for bno := 0; bno < g.NumBlocks(); bno++ {
		if err := g.ReadBlock(ctx, bno, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, block(bno)) {
			t.Fatalf("post-rebuild read of block %d mismatch", bno)
		}
	}
	if bad, err := g.VerifyParity(ctx); err != nil || len(bad) != 0 {
		t.Fatalf("post-rebuild parity bad=%v err=%v", bad, err)
	}
	if err := g.Rebuild(ctx, repl); !errors.Is(err, ErrNoFailure) {
		t.Fatalf("rebuild without failure err = %v, want ErrNoFailure", err)
	}
}

func TestVolumeConcatenation(t *testing.T) {
	ctx := context.Background()
	g1 := newTestGroup(t, 2, 8) // 16 blocks
	g2 := newTestGroup(t, 3, 8) // 24 blocks
	v, err := NewVolume("vol", g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumBlocks() != 40 {
		t.Fatalf("NumBlocks = %d, want 40", v.NumBlocks())
	}
	for bno := 0; bno < 40; bno++ {
		if err := v.WriteBlock(ctx, bno, block(bno)); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, storage.BlockSize)
	for bno := 0; bno < 40; bno++ {
		if err := v.ReadBlock(ctx, bno, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, block(bno)) {
			t.Fatalf("volume block %d mismatch", bno)
		}
	}
	// Blocks past the first group must land in the second group.
	gbuf := make([]byte, storage.BlockSize)
	if err := g2.ReadBlock(ctx, 0, gbuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gbuf, block(16)) {
		t.Fatal("volume block 16 not at group 2 block 0")
	}
}

func TestVolumeBounds(t *testing.T) {
	ctx := context.Background()
	v, err := Build(nil, "v", Config{Groups: 1, DataDisksPerGroup: 2, BlocksPerDisk: 4, DiskParams: vdev.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, storage.BlockSize)
	if err := v.ReadBlock(ctx, v.NumBlocks(), buf); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
	if err := v.WriteBlock(ctx, -1, buf); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
}

func TestBuildGeometry(t *testing.T) {
	v, err := Build(nil, "home", Config{Groups: 3, DataDisksPerGroup: 10, BlocksPerDisk: 64, DiskParams: vdev.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	if v.NumBlocks() != 3*10*64 {
		t.Fatalf("NumBlocks = %d, want %d", v.NumBlocks(), 3*10*64)
	}
	if v.NumDisks() != 33 {
		t.Fatalf("NumDisks = %d, want 33 (incl. parity)", v.NumDisks())
	}
}

func TestBuildRejectsBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Groups: 0, DataDisksPerGroup: 1, BlocksPerDisk: 1},
		{Groups: 1, DataDisksPerGroup: 0, BlocksPerDisk: 1},
		{Groups: 1, DataDisksPerGroup: 1, BlocksPerDisk: 0},
	} {
		if _, err := Build(nil, "v", cfg); err == nil {
			t.Errorf("Build(%+v) succeeded, want error", cfg)
		}
	}
}

func TestAscendingScanIsSequentialPerDisk(t *testing.T) {
	// Reading the whole volume in ascending block order must keep each
	// member disk sequential: at most one seek per disk.
	env := sim.NewEnv()
	v, err := Build(env, "v", Config{Groups: 1, DataDisksPerGroup: 4, BlocksPerDisk: 32, DiskParams: vdev.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	env.Spawn("scan", func(p *sim.Proc) {
		ctx := sim.WithProc(context.Background(), p)
		buf := make([]byte, storage.BlockSize)
		for bno := 0; bno < v.NumBlocks(); bno++ {
			if err := v.ReadBlock(ctx, bno, buf); err != nil {
				t.Error(err)
				return
			}
		}
	})
	env.Run()
	for _, g := range v.Groups() {
		for i, d := range g.data {
			vd := d.(*vdev.Disk)
			_, _, seeks := vd.Stats()
			if seeks > 1 {
				t.Errorf("disk %d saw %d seeks during ascending scan, want <= 1", i, seeks)
			}
		}
	}
}

func TestVolumeTraffic(t *testing.T) {
	ctx := context.Background()
	v, err := Build(nil, "v", Config{Groups: 1, DataDisksPerGroup: 2, BlocksPerDisk: 8, DiskParams: vdev.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, storage.BlockSize)
	for i := 0; i < 5; i++ {
		if err := v.WriteBlock(ctx, i, buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := v.ReadBlock(ctx, i, buf); err != nil {
			t.Fatal(err)
		}
	}
	r, w := v.Traffic()
	if r != 3*storage.BlockSize || w != 5*storage.BlockSize {
		t.Fatalf("traffic = (%d, %d), want (%d, %d)", r, w, 3*storage.BlockSize, 5*storage.BlockSize)
	}
}

// TestDegradedGroupDeclinesOnlyFailedDisk: with one data disk failed a
// volume goes on prefetching from every other disk of that group, and
// from the other groups; only the failed disk's blocks are declined and
// charged nothing. Per-group busy time says where the work went.
func TestDegradedGroupDeclinesOnlyFailedDisk(t *testing.T) {
	env := sim.NewEnv()
	v, err := Build(env, "v", Config{Groups: 2, DataDisksPerGroup: 4, BlocksPerDisk: 16, DiskParams: vdev.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	if got := v.GroupStarts(); len(got) != 2 || got[0] != 0 || got[1] != 64 {
		t.Fatalf("GroupStarts = %v, want [0 64]", got)
	}
	const failed = 2
	if err := v.Groups()[1].FailDisk(failed); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	v.RegisterMetrics(reg)
	for bno := 0; bno < v.NumBlocks(); bno++ {
		if want := bno < 64 || bno%4 != failed; v.CanPrefetch(bno) != want {
			t.Errorf("CanPrefetch(%d) = %v, want %v", bno, !want, want)
		}
	}
	if v.CanPrefetch(-1) || v.CanPrefetch(v.NumBlocks()) {
		t.Error("CanPrefetch accepted a block outside the volume")
	}
	env.Spawn("prefetch", func(p *sim.Proc) {
		ctx := sim.WithProc(context.Background(), p)
		for bno := 64; bno < 128; bno++ { // group 1 only
			v.Prefetch(ctx, bno)
		}
	})
	env.Run()
	for i, d := range v.Groups()[1].Data() {
		reads, _, _ := d.(*vdev.Disk).Stats()
		if want := int64(16); i == failed {
			if reads != 0 {
				t.Errorf("the failed disk was charged %d prefetches", reads)
			}
		} else if reads != want {
			t.Errorf("disk %d of the degraded group took %d prefetches, want %d", i, reads, want)
		}
	}
	busy := func(group string) float64 {
		s, ok := reg.Value("raid_group_busy_seconds", obs.Labels{"vol": "v", "group": group})
		if !ok {
			t.Fatalf("no raid_group_busy_seconds for group %s", group)
		}
		return s
	}
	if busy("0") != 0 || busy("1") <= 0 || busy("1") != v.DiskBusy().Seconds() {
		t.Errorf("group busy seconds %v and %v, volume %v", busy("0"), busy("1"), v.DiskBusy().Seconds())
	}
}

func TestVerifyParityFindsBadStripe(t *testing.T) {
	ctx := context.Background()
	g := newTestGroup(t, 3, 8)
	for bno := 0; bno < g.NumBlocks(); bno++ {
		if err := g.WriteBlock(ctx, bno, block(bno)); err != nil {
			t.Fatal(err)
		}
	}
	par := make([]byte, storage.BlockSize)
	if err := g.parity.ReadBlock(ctx, 5, par); err != nil {
		t.Fatal(err)
	}
	par[storage.BlockSize-1] ^= 1 // the last byte: a compare that stops early misses it
	if err := g.parity.WriteBlock(ctx, 5, par); err != nil {
		t.Fatal(err)
	}
	bad, err := g.VerifyParity(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 || bad[0] != 5*3 {
		t.Fatalf("VerifyParity = %v, want [15] (stripe 5 of a 3-disk group)", bad)
	}
}

// TestXorIntoMatchesByteLoop holds xorInto to the one-byte loop it
// stands for, over lengths around a word and a block, on sub-slices
// that start off any alignment.
func TestXorIntoMatchesByteLoop(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 7, 8, 9, 4095, 4096, 65536} {
		for _, off := range [][2]int{{0, 0}, {1, 0}, {0, 3}, {5, 7}, {7, 1}} {
			dstBuf := make([]byte, n+off[0])
			srcBuf := make([]byte, n+off[1])
			r.Read(dstBuf)
			r.Read(srcBuf)
			dst, src := dstBuf[off[0]:], srcBuf[off[1]:]
			want := bytes.Clone(dst)
			for i := range want {
				want[i] ^= src[i]
			}
			srcBefore := bytes.Clone(src)
			xorInto(dst, src)
			if !bytes.Equal(dst, want) {
				t.Fatalf("len %d, offsets %v: xorInto differs from the byte loop", n, off)
			}
			if !bytes.Equal(src, srcBefore) {
				t.Fatalf("len %d, offsets %v: xorInto wrote to src", n, off)
			}
		}
	}
}
