package wafl

import (
	"testing"

	"repro/internal/storage"
)

// TestFreshStagingAllocs pins what staging file blocks costs a freshly
// made filesystem before its first consistency point, when no buffer
// has been traded back yet and every block staged takes a new one: at
// most one allocation per bufSlabBlocks blocks, the slab takeBuf cuts
// them from — not one 4 KiB buffer each. What is pinned is the buffers
// alone: the staged map is presized as a consistency point leaves it,
// and the file's block map is grown up front by staging its last block.
func TestFreshStagingAllocs(t *testing.T) {
	const runs = 16
	fileBlocks := (runs + 2) * bufSlabBlocks
	fs, err := Mkfs(ctx, storage.NewMemDevice(2*fileBlocks), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ino, err := fs.Create(ctx, RootIno, "f", 0644, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fs.staged = make(map[blockKey][]byte, fileBlocks)
	data := randBytes(3, bufSlabBlocks*BlockSize)
	if err := fs.Write(ctx, ino, uint64(fileBlocks-1)*BlockSize, data[:BlockSize]); err != nil {
		t.Fatal(err)
	}
	off := uint64(0)
	n := testing.AllocsPerRun(runs, func() {
		if err := fs.Write(ctx, ino, off, data); err != nil {
			t.Fatal(err)
		}
		off += uint64(len(data))
	})
	if n > 1 {
		t.Fatalf("staging %d blocks on a fresh filesystem: %v allocations, want <= 1", bufSlabBlocks, n)
	}
	if fs.CPCount() != 1 {
		t.Fatalf("%d consistency points ran: the blocks were not all staged before the first after Mkfs", fs.CPCount()-1)
	}
}

// TestWarmListingAllocs pins a refill of a warm Listing with a one-block
// directory at nothing: the entries, the name bytes and the block it
// reads into are all the listing's own, kept from the fill before.
func TestWarmListingAllocs(t *testing.T) {
	fs := newFS(t, 1024)
	dir, err := fs.Mkdir(ctx, RootIno, "d", 0755, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"c", "a", "longer-name", "b"} {
		if _, err := fs.Create(ctx, dir, name, 0644, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.CP(ctx); err != nil {
		t.Fatal(err)
	}
	v := fs.ActiveView()
	var l Listing
	fill := func() {
		ents, err := l.Fill(ctx, v, dir)
		if err != nil || len(ents) != 6 || ents[3].Name != "b" {
			t.Fatalf("fill: %+v, %v", ents, err)
		}
	}
	fill()
	if n := testing.AllocsPerRun(100, fill); n != 0 {
		t.Fatalf("refilling a warm listing: %v allocs per fill, want 0", n)
	}
}
