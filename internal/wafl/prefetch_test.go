package wafl

import (
	"context"
	"slices"
	"testing"

	"repro/internal/storage"
)

// prefetchRecorder is a device with a Prefetcher seam that records
// every prefetch, in order, and counts the reads of each block. It
// declines to prefetch the blocks in declined.
type prefetchRecorder struct {
	storage.Device
	prefetched []int
	reads      map[int]int
	declined   map[int]bool
}

func (d *prefetchRecorder) ReadBlock(ctx context.Context, bno int, buf []byte) error {
	d.reads[bno]++
	return d.Device.ReadBlock(ctx, bno, buf)
}

func (d *prefetchRecorder) Prefetch(ctx context.Context, bno int) {
	d.prefetched = append(d.prefetched, bno)
}

func (d *prefetchRecorder) CanPrefetch(bno int) bool { return !d.declined[bno] }

// TestViewPrefetchBatch: whatever order a batch is collected in, the
// device sees it ascending, without holes or repeats, and never sees a
// block that is still cached; a block the device declines is neither
// prefetched nor warmed into the cache behind the device's back.
func TestViewPrefetchBatch(t *testing.T) {
	dev := &prefetchRecorder{Device: storage.NewMemDevice(2048), reads: map[int]int{}, declined: map[int]bool{}}
	fs, err := Mkfs(ctx, dev, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var inos []Inum
	for i, name := range []string{"/a", "/d/b", "/d/c"} {
		ino, err := fs.WriteFile(ctx, name, randBytes(int64(i), 40*BlockSize), 0644)
		if err != nil {
			t.Fatal(err)
		}
		inos = append(inos, ino)
	}
	if err := fs.CP(ctx); err != nil {
		t.Fatal(err)
	}
	if fs, err = Mount(ctx, dev, nil, Options{}); err != nil { // cold cache
		t.Fatal(err)
	}
	v := fs.ActiveView()

	// The files' blocks, last file first, each block twice, holes between.
	var batch []BlockNo
	for i := len(inos) - 1; i >= 0; i-- {
		for fbn := uint32(0); fbn < 40; fbn++ {
			pbn, err := v.BlockAt(ctx, inos[i], fbn)
			if err != nil || pbn == 0 {
				t.Fatalf("file %d block %d: pbn %d, err %v", i, fbn, pbn, err)
			}
			batch = append(batch, pbn, 0, pbn)
		}
	}
	want := slices.Clone(batch)
	slices.Sort(want)
	want = slices.Compact(want)[1:] // distinct, without the hole
	// Resolving the addresses read (and cached) each file's indirect
	// block; none of those is in the batch.
	refused := int(want[len(want)/2])
	dev.declined[refused] = true
	dev.prefetched, dev.reads = nil, map[int]int{}

	v.Prefetch(ctx, batch)
	var got []BlockNo
	for _, bno := range dev.prefetched {
		got = append(got, BlockNo(bno))
	}
	if i := slices.Index(want, BlockNo(refused)); !slices.Equal(got, slices.Delete(slices.Clone(want), i, i+1)) {
		t.Fatalf("device saw %v,\nwant %v without %d", got, want, refused)
	}
	for _, pbn := range want {
		warmed := 1
		if int(pbn) == refused {
			warmed = 0
		}
		if n := dev.reads[int(pbn)]; n != warmed {
			t.Errorf("block %d read %d times behind the prefetch, want %d", pbn, n, warmed)
		}
	}

	// Everything the device took is cached: a second batch issues only
	// what it declined the first time round.
	dev.prefetched, dev.declined = nil, map[int]bool{}
	v.Prefetch(ctx, batch)
	if !slices.Equal(dev.prefetched, []int{refused}) {
		t.Errorf("second batch issued %v, want only %d", dev.prefetched, refused)
	}

	// And a file read afterwards goes to the device for nothing.
	dev.reads = map[int]int{}
	buf := make([]byte, 40*BlockSize)
	if _, err := v.ReadAt(ctx, inos[0], 0, buf); err != nil {
		t.Fatal(err)
	}
	if len(dev.reads) != 0 {
		t.Errorf("read after prefetch went to the device for blocks %v", dev.reads)
	}
}
