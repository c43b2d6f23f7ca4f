package wafl

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/nvram"
	"repro/internal/storage"
)

func TestInodeMarshalRoundTripProperty(t *testing.T) {
	f := func(mode, nlink, uid, gid, gen, flags, qtree, xmode uint32, size uint64, at, mt, ct int64, d0, d5, d11, ind, dbl uint32) bool {
		in := Inode{
			Mode: mode, Nlink: nlink, UID: uid, GID: gid, Size: size,
			Atime: at, Mtime: mt, Ctime: ct, Gen: gen, Flags: flags,
			QtreeID: qtree, XMode: xmode,
			Indirect: BlockNo(ind), DblInd: BlockNo(dbl),
		}
		in.Direct[0] = BlockNo(d0)
		in.Direct[5] = BlockNo(d5)
		in.Direct[11] = BlockNo(d11)
		buf := make([]byte, InodeSize)
		in.Marshal(buf)
		out := UnmarshalInode(buf)
		return in == out
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFsinfoMarshalRoundTripProperty(t *testing.T) {
	f := func(gen uint64, cp int64, nb, ni uint64, snapID uint32, name string) bool {
		if len(name) > 32 {
			name = name[:32]
		}
		// NUL bytes truncate names on decode by design; avoid them here.
		clean := make([]byte, 0, len(name))
		for _, c := range []byte(name) {
			if c != 0 {
				clean = append(clean, c)
			}
		}
		info := fsinfo{Gen: gen, CPTime: cp, NBlocks: nb, NInodes: ni}
		info.InodeFile.Size = ni * InodeSize
		info.Snaps[3] = SnapEntry{ID: snapID%20 + 1, CreatedAt: cp, Name: string(clean)}
		buf := marshalFsinfo(&info)
		out, err := unmarshalFsinfo(buf)
		if err != nil {
			return false
		}
		return out.Gen == gen && out.CPTime == cp && out.NBlocks == nb &&
			out.Snaps[3].Name == string(clean) && out.Snaps[3].ID == snapID%20+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFsinfoRejectsCorruption(t *testing.T) {
	info := fsinfo{Gen: 7, NBlocks: 100}
	buf := marshalFsinfo(&info)
	for _, off := range []int{0, 10, 100, 2000, len(buf) - 1} {
		bad := make([]byte, len(buf))
		copy(bad, buf)
		bad[off] ^= 0x40
		if _, err := unmarshalFsinfo(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("flip at %d: err = %v, want ErrCorrupt", off, err)
		}
	}
	// Wrong length is rejected outright.
	if _, err := unmarshalFsinfo(buf[:BlockSize]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("short fsinfo err = %v, want ErrCorrupt", err)
	}
}

func TestDirBlockInsertRemoveProperty(t *testing.T) {
	// Insert up to N random names, remove a random subset, verify the
	// survivors are exactly what a scan finds, at every step.
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		blk := make([]byte, BlockSize)
		initDirBlock(blk)
		want := make(map[string]Inum)
		for op := 0; op < 200; op++ {
			if r.Intn(3) != 0 || len(want) == 0 {
				name := fmt.Sprintf("n%d-%d", trial, r.Intn(100))
				if _, ok := want[name]; ok {
					continue
				}
				ino := Inum(r.Intn(1 << 20))
				if ino == 0 {
					ino = 1
				}
				if err := dirInsertInBlock(blk, name, ino, ModeReg); err == ErrNoSpace {
					continue
				} else if err != nil {
					t.Fatal(err)
				}
				want[name] = ino
			} else {
				// Remove a random present name.
				for name := range want {
					if _, ok := dirRemoveFromBlock(blk, name); !ok {
						t.Fatalf("remove of present name %q failed", name)
					}
					delete(want, name)
					break
				}
			}
			var l Listing
			if err := l.appendBlock(blk); err != nil {
				t.Fatal(err)
			}
			got := make(map[string]Inum)
			for _, e := range l.ents {
				got[e.Name] = e.Ino
			}
			if len(got) != len(want) {
				t.Fatalf("scan found %d entries, want %d", len(got), len(want))
			}
			for n, i := range want {
				if got[n] != i {
					t.Fatalf("entry %q = %d, want %d", n, got[n], i)
				}
			}
		}
	}
}

func TestDirBlockCoalescing(t *testing.T) {
	// Fill a block with small names, remove them all, then a long name
	// must fit: free records must coalesce.
	blk := make([]byte, BlockSize)
	initDirBlock(blk)
	var names []string
	for i := 0; ; i++ {
		name := fmt.Sprintf("s%03d", i)
		if err := dirInsertInBlock(blk, name, Inum(i+10), ModeReg); err != nil {
			break
		}
		names = append(names, name)
	}
	if len(names) < 100 {
		t.Fatalf("only %d small names fit", len(names))
	}
	for _, n := range names {
		dirRemoveFromBlock(blk, n)
	}
	long := make([]byte, 200)
	for i := range long {
		long[i] = 'x'
	}
	if err := dirInsertInBlock(blk, string(long), 5, ModeReg); err != nil {
		t.Fatalf("long name after freeing everything: %v", err)
	}
}

// TestRandomOpsAgainstModel drives the filesystem with a random
// operation sequence and checks it against a flat in-memory model,
// including across consistency points, snapshot creation, deletion and
// revert, and a crash+replay. After every operation the block map's
// count of free blocks must equal a scan of the map.
func TestRandomOpsAgainstModel(t *testing.T) {
	const files = 24
	r := rand.New(rand.NewSource(1234))
	dev := storage.NewMemDevice(8192)
	log := newTestLog()
	fs, err := Mkfs(ctx, dev, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tweaked(fs)
	model := make(map[string][]byte)
	name := func(i int) string { return fmt.Sprintf("/dir%d/f%d", i%4, i) }
	// snaps holds each live snapshot's model, oldest first.
	type snap struct {
		name  string
		model map[string][]byte
	}
	var snaps []snap
	clone := func(m map[string][]byte) map[string][]byte {
		c := make(map[string][]byte, len(m))
		for p, data := range m {
			c[p] = bytes.Clone(data)
		}
		return c
	}

	verify := func(f *FS, stage string) {
		t.Helper()
		for i := 0; i < files; i++ {
			p := name(i)
			want, exists := model[p]
			got, err := f.ActiveView().ReadFile(ctx, p)
			if exists {
				if err != nil {
					t.Fatalf("%s: %s: %v", stage, p, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: %s content mismatch (%d vs %d bytes)", stage, p, len(got), len(want))
				}
			} else if !errors.Is(err, ErrNotFound) {
				t.Fatalf("%s: %s should be absent, err = %v", stage, p, err)
			}
		}
	}

	snapSeq := 0
	for step := 0; step < 400; step++ {
		i := r.Intn(files)
		p := name(i)
		switch r.Intn(13) {
		case 0, 1, 2, 3: // write/overwrite
			data := randBytes(r.Int63(), r.Intn(6*BlockSize)+1)
			if _, err := fs.WriteFile(ctx, p, data, 0644); err != nil {
				t.Fatalf("step %d write %s: %v", step, p, err)
			}
			model[p] = data
		case 4, 5: // append
			if _, ok := model[p]; !ok {
				continue
			}
			extra := randBytes(r.Int63(), r.Intn(BlockSize)+1)
			ino, err := fs.ActiveView().Namei(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.Write(ctx, ino, uint64(len(model[p])), extra); err != nil {
				t.Fatal(err)
			}
			model[p] = append(model[p], extra...)
		case 6: // truncate
			if _, ok := model[p]; !ok {
				continue
			}
			nl := r.Intn(len(model[p]) + 1)
			ino, _ := fs.ActiveView().Namei(ctx, p)
			if err := fs.Truncate(ctx, ino, uint64(nl)); err != nil {
				t.Fatal(err)
			}
			model[p] = model[p][:nl]
		case 7: // remove
			if _, ok := model[p]; !ok {
				continue
			}
			if err := fs.RemovePath(ctx, p); err != nil {
				t.Fatal(err)
			}
			delete(model, p)
		case 8: // consistency point
			if err := fs.CP(ctx); err != nil {
				t.Fatal(err)
			}
		case 9: // crash and recover via NVRAM
			fs.Crash()
			fs, err = Mount(ctx, dev, log, Options{})
			if err != nil {
				t.Fatalf("step %d remount: %v", step, err)
			}
			tweaked(fs)
			verify(fs, fmt.Sprintf("step %d post-crash", step))
		case 10: // snapshot create
			if len(snaps) == MaxSnapshots {
				continue
			}
			snapSeq++
			sn := fmt.Sprintf("s%d", snapSeq)
			if err := fs.CreateSnapshot(ctx, sn); err != nil {
				t.Fatalf("step %d snapshot %s: %v", step, sn, err)
			}
			snaps = append(snaps, snap{sn, clone(model)})
		case 11: // snapshot delete
			if len(snaps) == 0 {
				continue
			}
			k := r.Intn(len(snaps))
			if err := fs.DeleteSnapshot(ctx, snaps[k].name); err != nil {
				t.Fatalf("step %d delete %s: %v", step, snaps[k].name, err)
			}
			snaps = append(snaps[:k], snaps[k+1:]...)
		case 12: // revert: the target's newer snapshots go with it
			if len(snaps) == 0 {
				continue
			}
			k := r.Intn(len(snaps))
			if err := fs.RevertToSnapshot(ctx, snaps[k].name); err != nil {
				t.Fatalf("step %d revert to %s: %v", step, snaps[k].name, err)
			}
			model = clone(snaps[k].model)
			snaps = snaps[:k+1]
			verify(fs, fmt.Sprintf("step %d post-revert", step))
		}
		if n, scan := fs.bmap.freeBlocks(), fs.bmap.scanFree(); n != scan {
			t.Fatalf("step %d: the block map counts %d blocks free, a scan %d", step, n, scan)
		}
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshot survives the sequence: it no longer covers what it should")
	}
	verify(fs, "final")
	check(t, fs)
}

// newTestLog builds an NVRAM log big enough that the test controls CP
// timing mostly itself, while auto-CP still fires under heavy load.
func newTestLog() *nvram.Log {
	return nvram.New(nil, nvram.Params{Size: 4 << 20})
}
