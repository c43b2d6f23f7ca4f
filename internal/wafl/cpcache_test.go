package wafl

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/storage"
)

// TestCPKeepsMetadataCached pins what a consistency point leaves in
// the buffer cache. After one that writes four times the cache in file
// data, the directories and the inode file are still cached — those
// the CP rewrote and those an earlier one did — so creating, looking
// up and listing in existing directories reads nothing from disk.
func TestCPKeepsMetadataCached(t *testing.T) {
	const cacheBlocks = 64
	fs, err := Mkfs(ctx, storage.NewMemDevice(4096), nil, Options{CacheBlocks: cacheBlocks})
	if err != nil {
		t.Fatal(err)
	}
	var dirs []Inum
	for _, name := range []string{"a", "b", "c"} {
		dir, err := fs.Mkdir(ctx, RootIno, name, 0755, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if _, err := fs.Create(ctx, dir, fmt.Sprintf("f%d", i), 0644, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		dirs = append(dirs, dir)
	}
	if err := fs.CP(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteFile(ctx, "/a/big", randBytes(31, 4*cacheBlocks*BlockSize), 0644); err != nil {
		t.Fatal(err)
	}
	if err := fs.CP(ctx); err != nil {
		t.Fatal(err)
	}

	_, before := fs.CacheStats()
	av := fs.ActiveView()
	for i, dir := range dirs {
		if _, err := fs.Create(ctx, dir, "new", 0644, 0, 0); err != nil {
			t.Fatalf("dir %d: create: %v", i, err)
		}
		if _, err := av.Lookup(ctx, dir, "f7"); err != nil {
			t.Fatalf("dir %d: lookup: %v", i, err)
		}
		if _, err := av.Readdir(ctx, dir); err != nil {
			t.Fatalf("dir %d: readdir: %v", i, err)
		}
	}
	if _, after := fs.CacheStats(); after != before {
		t.Fatalf("create, lookup and readdir in existing directories missed the cache %d times after a data-heavy CP, want 0", after-before)
	}
}

// TestSnapshotFreedBlocksReuseReadsNewData is the case that makes a
// consistency point drop a cached frame for every file-data block it
// writes without caching. Reading a removed file through a snapshot
// caches its blocks with their old contents; deleting the snapshot
// frees them without touching the cache. Files written afterwards get
// those blocks once allocation comes round to them, and reading such a
// file back must return what was written, not the snapshot's bytes.
func TestSnapshotFreedBlocksReuseReadsNewData(t *testing.T) {
	fs := newFS(t, 512)
	old := randBytes(41, 40*BlockSize)
	ino, err := fs.WriteFile(ctx, "/old", old, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.CreateSnapshot(ctx, "s"); err != nil {
		t.Fatal(err)
	}
	freed := make(map[BlockNo]bool)
	av := fs.ActiveView()
	for fbn := uint32(0); fbn < 40; fbn++ {
		pbn, err := av.BlockAt(ctx, ino, fbn)
		if err != nil || pbn == 0 {
			t.Fatalf("fbn %d: pbn %d, %v", fbn, pbn, err)
		}
		freed[pbn] = true
	}
	if err := fs.RemovePath(ctx, "/old"); err != nil {
		t.Fatal(err)
	}
	if err := fs.CP(ctx); err != nil {
		t.Fatal(err)
	}
	sv, err := fs.SnapshotView("s")
	if err != nil {
		t.Fatal(err)
	}
	got, err := sv.ReadFile(ctx, "/old")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatal("snapshot lost the removed file's contents")
	}
	if err := fs.DeleteSnapshot(ctx, "s"); err != nil {
		t.Fatal(err)
	}

	// Churn through the small volume until new file data has landed on
	// the freed blocks.
	reused := make(map[BlockNo]bool)
	for round := 0; round < 100 && len(reused) < len(freed)/2; round++ {
		path := fmt.Sprintf("/new%d", round)
		data := randBytes(int64(100+round), 16*BlockSize)
		ino, err := fs.WriteFile(ctx, path, data, 0644)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := fs.CP(ctx); err != nil {
			t.Fatal(err)
		}
		for fbn := uint32(0); fbn < 16; fbn++ {
			if pbn, err := av.BlockAt(ctx, ino, fbn); err != nil {
				t.Fatal(err)
			} else if freed[pbn] {
				reused[pbn] = true
			}
		}
		got, err := av.ReadFile(ctx, path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round %d: %s reads back other bytes than were written (stale cached block?)", round, path)
		}
		if err := fs.RemovePath(ctx, path); err != nil {
			t.Fatal(err)
		}
	}
	if len(reused) < len(freed)/2 {
		t.Fatalf("only %d of the %d blocks the snapshot freed were reused for file data: the test proves nothing", len(reused), len(freed))
	}
	check(t, fs)
}
