package wafl

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/nvram"
	"repro/internal/storage"
)

var ctx = context.Background()

func newFS(t *testing.T, blocks int) *FS {
	t.Helper()
	dev := storage.NewMemDevice(blocks)
	fs, err := Mkfs(ctx, dev, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tweaked(fs)
}

// tweakFS, when set, is applied to every filesystem a test body makes
// or mounts through newFS and tweaked: TestTinyPoisonedCache reruns
// bodies written for the default cache over a hostile one.
var tweakFS func(*FS)

func tweaked(fs *FS) *FS {
	if tweakFS != nil && fs != nil {
		tweakFS(fs)
	}
	return fs
}

func check(t *testing.T, fs *FS) {
	t.Helper()
	problems, err := fs.Check(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Errorf("fsck: %s", p)
	}
	if t.Failed() {
		t.FailNow()
	}
}

func randBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestMkfsIsConsistent(t *testing.T) {
	fs := newFS(t, 512)
	check(t, fs)
	ents, err := fs.ActiveView().Readdir(ctx, RootIno)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 || ents[0].Name != "." || ents[1].Name != ".." {
		t.Fatalf("root entries = %v, want . and ..", ents)
	}
}

func TestCreateWriteRead(t *testing.T) {
	fs := newFS(t, 512)
	ino, err := fs.Create(ctx, RootIno, "hello.txt", 0644, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("hello, wafl")
	if err := fs.Write(ctx, ino, 0, data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ActiveView().ReadFile(ctx, "hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %q, want %q", got, data)
	}
	st, err := fs.ActiveView().Stat(ctx, "hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	if st.UID != 10 || st.GID != 20 || st.Mode != ModeReg|0644 {
		t.Fatalf("stat = %+v", st)
	}
	check(t, fs)
}

func TestReadAcrossCP(t *testing.T) {
	fs := newFS(t, 512)
	data := randBytes(1, 3*BlockSize+100)
	ino, _ := fs.WriteFile(ctx, "/f", data, 0644)
	if err := fs.CP(ctx); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if _, err := fs.ActiveView().ReadAt(ctx, ino, 0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("data changed across CP")
	}
	check(t, fs)
}

func TestLargeFileIndirect(t *testing.T) {
	// Spans direct + indirect blocks: > 12 blocks.
	fs := newFS(t, 2048)
	data := randBytes(2, 40*BlockSize)
	if _, err := fs.WriteFile(ctx, "/big", data, 0644); err != nil {
		t.Fatal(err)
	}
	check(t, fs)
	got, err := fs.ActiveView().ReadFile(ctx, "/big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("indirect file corrupted")
	}
}

func TestHugeFileDoubleIndirect(t *testing.T) {
	// Spans into the double-indirect range: > 12 + 1024 blocks.
	fs := newFS(t, 4096)
	n := (NDirect + PtrsPerBlock + 50) * BlockSize
	data := randBytes(3, n)
	if _, err := fs.WriteFile(ctx, "/huge", data, 0644); err != nil {
		t.Fatal(err)
	}
	check(t, fs)
	got, err := fs.ActiveView().ReadFile(ctx, "/huge")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("double-indirect file corrupted")
	}
}

func TestSparseFileHoles(t *testing.T) {
	fs := newFS(t, 1024)
	ino, err := fs.Create(ctx, RootIno, "sparse", 0644, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Write one block at offset 20 blocks: fbns 0..19 are holes.
	tail := randBytes(4, BlockSize)
	if err := fs.Write(ctx, ino, 20*BlockSize, tail); err != nil {
		t.Fatal(err)
	}
	if err := fs.CP(ctx); err != nil {
		t.Fatal(err)
	}
	v := fs.ActiveView()
	for fbn := uint32(0); fbn < 20; fbn++ {
		pbn, err := v.BlockAt(ctx, ino, fbn)
		if err != nil {
			t.Fatal(err)
		}
		if pbn != 0 {
			t.Fatalf("fbn %d should be a hole, got pbn %d", fbn, pbn)
		}
	}
	buf := make([]byte, BlockSize)
	if _, err := v.ReadAt(ctx, ino, 0, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("hole read non-zero")
		}
	}
	got := make([]byte, BlockSize)
	if _, err := v.ReadAt(ctx, ino, 20*BlockSize, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, tail) {
		t.Fatal("tail block mismatch")
	}
	check(t, fs)
}

func TestOverwriteIsCopyOnWrite(t *testing.T) {
	fs := newFS(t, 512)
	ino, _ := fs.WriteFile(ctx, "/f", randBytes(5, BlockSize), 0644)
	if err := fs.CP(ctx); err != nil {
		t.Fatal(err)
	}
	oldPbn, err := fs.ActiveView().BlockAt(ctx, ino, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Write(ctx, ino, 0, randBytes(6, BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.CP(ctx); err != nil {
		t.Fatal(err)
	}
	newPbn, err := fs.ActiveView().BlockAt(ctx, ino, 0)
	if err != nil {
		t.Fatal(err)
	}
	if newPbn == oldPbn {
		t.Fatalf("overwrite reused block %d in place (no COW)", oldPbn)
	}
	check(t, fs)
}

// TestCPWritesInInodeThenBlockOrder: whatever order blocks were staged
// in, a consistency point writes files in ascending inode order and
// each file's blocks in ascending fbn order, so on one group a file's
// blocks land contiguous and in order, right after the file before it.
func TestCPWritesInInodeThenBlockOrder(t *testing.T) {
	fs := newFS(t, 1024)
	a, _ := fs.Create(ctx, RootIno, "a", 0644, 0, 0)
	b, _ := fs.Create(ctx, RootIno, "b", 0644, 0, 0)
	const n = 20 // past the direct blocks
	for _, ino := range []Inum{b, a} {
		for fbn := n - 1; fbn >= 0; fbn-- {
			if err := fs.Write(ctx, ino, uint64(fbn)*BlockSize, randBytes(int64(fbn), BlockSize)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := fs.CP(ctx); err != nil {
		t.Fatal(err)
	}
	first, err := fs.ActiveView().BlockAt(ctx, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, ino := range []Inum{a, b} {
		for fbn := uint32(0); fbn < n; fbn++ {
			want := first + BlockNo(i*n) + BlockNo(fbn)
			if pbn, err := fs.ActiveView().BlockAt(ctx, ino, fbn); err != nil || pbn != want {
				t.Fatalf("file %d fbn %d at block %d, %v; want %d", i, fbn, pbn, err, want)
			}
		}
		if i == 0 {
			first++ // a's indirect block comes after its data
		}
	}
	check(t, fs)
}

func TestTruncateGrowShrink(t *testing.T) {
	fs := newFS(t, 1024)
	data := randBytes(7, 10*BlockSize)
	ino, _ := fs.WriteFile(ctx, "/f", data, 0644)
	if err := fs.Truncate(ctx, ino, 3*BlockSize+17); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ActiveView().ReadFile(ctx, "/f")
	if !bytes.Equal(got, data[:3*BlockSize+17]) {
		t.Fatal("shrunk file content wrong")
	}
	check(t, fs)
	// Regrow: the region past the old end must read as zeros.
	if err := fs.Truncate(ctx, ino, 5*BlockSize); err != nil {
		t.Fatal(err)
	}
	got, _ = fs.ActiveView().ReadFile(ctx, "/f")
	if len(got) != 5*BlockSize {
		t.Fatalf("size = %d", len(got))
	}
	for i := 3*BlockSize + 17; i < len(got); i++ {
		if got[i] != 0 {
			t.Fatalf("byte %d after regrow = %d, want 0", i, got[i])
		}
	}
	check(t, fs)
}

func TestTruncateFreesBlocks(t *testing.T) {
	fs := newFS(t, 1024)
	ino, _ := fs.WriteFile(ctx, "/f", randBytes(8, 100*BlockSize), 0644)
	if err := fs.CP(ctx); err != nil {
		t.Fatal(err)
	}
	before := fs.UsedBlocks()
	if err := fs.Truncate(ctx, ino, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.CP(ctx); err != nil {
		t.Fatal(err)
	}
	after := fs.UsedBlocks()
	if after >= before-90 {
		t.Fatalf("used blocks %d -> %d; truncate freed too little", before, after)
	}
	check(t, fs)
}

func TestRemoveFreesEverything(t *testing.T) {
	fs := newFS(t, 1024)
	if err := fs.CP(ctx); err != nil {
		t.Fatal(err)
	}
	baseline := fs.UsedBlocks()
	fs.WriteFile(ctx, "/d/e/f", randBytes(9, 50*BlockSize), 0644)
	if err := fs.RemovePath(ctx, "/d/e/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.RemovePath(ctx, "/d/e"); err != nil {
		t.Fatal(err)
	}
	if err := fs.RemovePath(ctx, "/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.CP(ctx); err != nil {
		t.Fatal(err)
	}
	if got := fs.UsedBlocks(); got != baseline {
		t.Fatalf("used blocks %d after remove, baseline %d", got, baseline)
	}
	check(t, fs)
}

func TestRemoveErrors(t *testing.T) {
	fs := newFS(t, 512)
	fs.Mkdir(ctx, RootIno, "d", 0755, 0, 0)
	if err := fs.Remove(ctx, RootIno, "d"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("Remove(dir) err = %v, want ErrIsDir", err)
	}
	if err := fs.Remove(ctx, RootIno, "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Remove(missing) err = %v, want ErrNotFound", err)
	}
	fs.WriteFile(ctx, "/d/x", []byte("x"), 0644)
	dIno, _ := fs.ActiveView().Namei(ctx, "/d")
	if err := fs.Rmdir(ctx, RootIno, "d"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("Rmdir(nonempty) err = %v, want ErrNotEmpty", err)
	}
	fs.Remove(ctx, dIno, "x")
	if err := fs.Rmdir(ctx, RootIno, "d"); err != nil {
		t.Fatal(err)
	}
	check(t, fs)
}

// TestMissesNameTheComponent: a lookup that misses is ErrNotFound
// everywhere, and every exported entry point that reports one names the
// missing component in its message.
func TestMissesNameTheComponent(t *testing.T) {
	fs := newFS(t, 512)
	d, err := fs.Mkdir(ctx, RootIno, "d", 0755, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	v := fs.ActiveView()
	for _, c := range []struct {
		op   string
		call func() error
		want string
	}{
		{"Lookup", func() error { _, err := v.Lookup(ctx, d, "nope"); return err }, `wafl: no such file or directory: "nope"`},
		{"Namei last", func() error { _, err := v.Namei(ctx, "/d/nope"); return err }, `d/nope: wafl: no such file or directory: "nope"`},
		{"Namei inner", func() error { _, err := v.Namei(ctx, "/gone/x"); return err }, `gone: wafl: no such file or directory: "gone"`},
		{"ReadFile", func() error { _, err := v.ReadFile(ctx, "/d/nope"); return err }, `d/nope: wafl: no such file or directory: "nope"`},
		{"Remove", func() error { return fs.Remove(ctx, d, "nope") }, `wafl: no such file or directory: "nope"`},
		{"Rmdir", func() error { return fs.Rmdir(ctx, RootIno, "nope") }, `wafl: no such file or directory: "nope"`},
		{"Rename", func() error { return fs.Rename(ctx, d, "nope", RootIno, "x") }, `wafl: no such file or directory: "nope"`},
		{"RemovePath", func() error { return fs.RemovePath(ctx, "/d/nope") }, `wafl: no such file or directory: "nope"`},
	} {
		err := c.call()
		if !errors.Is(err, ErrNotFound) {
			t.Errorf("%s: err = %v, want ErrNotFound", c.op, err)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%s: message %q, want %q", c.op, err.Error(), c.want)
		}
	}
}

func TestCreateDuplicate(t *testing.T) {
	fs := newFS(t, 512)
	if _, err := fs.Create(ctx, RootIno, "f", 0644, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create(ctx, RootIno, "f", 0644, 0, 0); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create err = %v, want ErrExists", err)
	}
}

func TestManyFilesInDirectory(t *testing.T) {
	// Forces the directory to grow past one block.
	fs := newFS(t, 4096)
	for i := 0; i < 500; i++ {
		name := fmt.Sprintf("file-with-a-longish-name-%04d", i)
		if _, err := fs.Create(ctx, RootIno, name, 0644, 0, 0); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	ents, err := fs.ActiveView().Readdir(ctx, RootIno)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 502 { // 500 + . + ..
		t.Fatalf("readdir = %d entries, want 502", len(ents))
	}
	// Spot-check lookups.
	for _, i := range []int{0, 250, 499} {
		name := fmt.Sprintf("file-with-a-longish-name-%04d", i)
		if _, err := fs.ActiveView().Lookup(ctx, RootIno, name); err != nil {
			t.Fatalf("lookup %s: %v", name, err)
		}
	}
	check(t, fs)
}

func TestDirectorySlotReuse(t *testing.T) {
	fs := newFS(t, 1024)
	for round := 0; round < 5; round++ {
		for i := 0; i < 50; i++ {
			if _, err := fs.Create(ctx, RootIno, fmt.Sprintf("f%d", i), 0644, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ {
			if err := fs.Remove(ctx, RootIno, fmt.Sprintf("f%d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, _ := fs.GetInode(ctx, RootIno)
	if st.Size > 4*BlockSize {
		t.Fatalf("root dir grew to %d bytes despite slot reuse", st.Size)
	}
	check(t, fs)
}

func TestRename(t *testing.T) {
	fs := newFS(t, 1024)
	fs.WriteFile(ctx, "/a/f", []byte("payload"), 0644)
	fs.MkdirAll(ctx, "/b", 0755)
	aIno, _ := fs.ActiveView().Namei(ctx, "/a")
	bIno, _ := fs.ActiveView().Namei(ctx, "/b")
	if err := fs.Rename(ctx, aIno, "f", bIno, "g"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ActiveView().Namei(ctx, "/a/f"); !errors.Is(err, ErrNotFound) {
		t.Fatal("source still present after rename")
	}
	got, err := fs.ActiveView().ReadFile(ctx, "/b/g")
	if err != nil || string(got) != "payload" {
		t.Fatalf("dest read: %q, %v", got, err)
	}
	check(t, fs)
}

func TestRenameDirectoryRewiresDotDot(t *testing.T) {
	fs := newFS(t, 1024)
	fs.MkdirAll(ctx, "/a/sub", 0755)
	fs.MkdirAll(ctx, "/b", 0755)
	aIno, _ := fs.ActiveView().Namei(ctx, "/a")
	bIno, _ := fs.ActiveView().Namei(ctx, "/b")
	if err := fs.Rename(ctx, aIno, "sub", bIno, "sub"); err != nil {
		t.Fatal(err)
	}
	subIno, err := fs.ActiveView().Namei(ctx, "/b/sub")
	if err != nil {
		t.Fatal(err)
	}
	parent, err := fs.ActiveView().Lookup(ctx, subIno, "..")
	if err != nil {
		t.Fatal(err)
	}
	if parent != bIno {
		t.Fatalf("'..' = %d, want %d", parent, bIno)
	}
	check(t, fs)
}

func TestHardLink(t *testing.T) {
	fs := newFS(t, 512)
	ino, _ := fs.WriteFile(ctx, "/f", []byte("shared"), 0644)
	if err := fs.Link(ctx, ino, RootIno, "g"); err != nil {
		t.Fatal(err)
	}
	st, _ := fs.GetInode(ctx, ino)
	if st.Nlink != 2 {
		t.Fatalf("nlink = %d, want 2", st.Nlink)
	}
	if err := fs.Remove(ctx, RootIno, "f"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ActiveView().ReadFile(ctx, "/g")
	if err != nil || string(got) != "shared" {
		t.Fatalf("after unlink of one name: %q, %v", got, err)
	}
	check(t, fs)
	if err := fs.Remove(ctx, RootIno, "g"); err != nil {
		t.Fatal(err)
	}
	check(t, fs)
}

func TestSymlink(t *testing.T) {
	fs := newFS(t, 512)
	fs.WriteFile(ctx, "/target/file", []byte("via link"), 0644)
	if _, err := fs.Symlink(ctx, RootIno, "ln", "/target"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ActiveView().ReadFile(ctx, "/ln/file")
	if err != nil || string(got) != "via link" {
		t.Fatalf("read through symlink: %q, %v", got, err)
	}
	lnIno, _ := fs.ActiveView().Lookup(ctx, RootIno, "ln")
	target, err := fs.ActiveView().Readlink(ctx, lnIno)
	if err != nil || target != "/target" {
		t.Fatalf("readlink = %q, %v", target, err)
	}
	check(t, fs)
}

func TestSetAttr(t *testing.T) {
	fs := newFS(t, 512)
	ino, _ := fs.Create(ctx, RootIno, "f", 0644, 0, 0)
	mode, uid, xm := uint32(0600), uint32(42), uint32(0xDEAD)
	mt := int64(123456789)
	if err := fs.SetAttr(ctx, ino, Attr{Mode: &mode, UID: &uid, Mtime: &mt, XMode: &xm}); err != nil {
		t.Fatal(err)
	}
	st, _ := fs.GetInode(ctx, ino)
	if st.Mode != ModeReg|0600 || st.UID != 42 || st.Mtime != mt || st.XMode != 0xDEAD {
		t.Fatalf("attrs = %+v", st)
	}
	check(t, fs)
}

func TestPersistenceAcrossMount(t *testing.T) {
	dev := storage.NewMemDevice(1024)
	fs, err := Mkfs(ctx, dev, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := randBytes(10, 5*BlockSize)
	fs.WriteFile(ctx, "/deep/nested/file.bin", data, 0600)
	if err := fs.CP(ctx); err != nil {
		t.Fatal(err)
	}

	fs2, err := Mount(ctx, dev, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs2.ActiveView().ReadFile(ctx, "/deep/nested/file.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data lost across remount")
	}
	check(t, fs2)
}

func TestCrashLosesOnlyUncommitted(t *testing.T) {
	dev := storage.NewMemDevice(1024)
	fs, _ := Mkfs(ctx, dev, nil, Options{})
	fs.WriteFile(ctx, "/committed", []byte("safe"), 0644)
	if err := fs.CP(ctx); err != nil {
		t.Fatal(err)
	}
	fs.WriteFile(ctx, "/lost", []byte("gone"), 0644)
	fs.Crash() // no NVRAM: staged ops vanish

	fs2, err := Mount(ctx, dev, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs2.ActiveView().ReadFile(ctx, "/committed"); err != nil {
		t.Fatalf("committed file lost: %v", err)
	}
	if _, err := fs2.ActiveView().ReadFile(ctx, "/lost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("uncommitted file survived without NVRAM: %v", err)
	}
	check(t, fs2)
}

func TestNVRAMReplayRecoversOperations(t *testing.T) {
	dev := storage.NewMemDevice(1024)
	log := nvram.New(nil, nvram.Params{Size: 1 << 20})
	fs, err := Mkfs(ctx, dev, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fs.WriteFile(ctx, "/base", []byte("base"), 0644)
	if err := fs.CP(ctx); err != nil {
		t.Fatal(err)
	}
	// Uncommitted operations of every kind.
	fs.WriteFile(ctx, "/dir/new.txt", []byte("new data"), 0644)
	ino, _ := fs.ActiveView().Namei(ctx, "/base")
	fs.Write(ctx, ino, 4, []byte(" extended"))
	fs.Symlink(ctx, RootIno, "ln", "/dir")
	fs.MkdirAll(ctx, "/d2", 0755)
	fs.WriteFile(ctx, "/d2/victim", []byte("x"), 0644)
	fs.RemovePath(ctx, "/d2/victim")
	mode := uint32(0640)
	fs.SetAttr(ctx, ino, Attr{Mode: &mode})

	fs.Crash()

	fs2, err := Mount(ctx, dev, log, Options{})
	if err != nil {
		t.Fatalf("mount with replay: %v", err)
	}
	got, err := fs2.ActiveView().ReadFile(ctx, "/dir/new.txt")
	if err != nil || string(got) != "new data" {
		t.Fatalf("replayed create+write: %q, %v", got, err)
	}
	base, _ := fs2.ActiveView().ReadFile(ctx, "/base")
	if string(base) != "base extended" {
		t.Fatalf("replayed write: %q", base)
	}
	if _, err := fs2.ActiveView().ReadFile(ctx, "/d2/victim"); !errors.Is(err, ErrNotFound) {
		t.Fatal("replayed remove missing")
	}
	st, _ := fs2.ActiveView().Stat(ctx, "/base")
	if st.Mode&ModePermMask != 0640 {
		t.Fatalf("replayed setattr: mode %o", st.Mode)
	}
	check(t, fs2)
}

// TestReplayAfterArenaReuse: NVRAM records its entries into one arena
// that every consistency point empties and keeps, and the filesystem
// recycles its staged state at each CP too. After two CPs have reused
// both, the operations since the last one must still replay into the
// very tree the crash interrupted.
func TestReplayAfterArenaReuse(t *testing.T) {
	dev := storage.NewMemDevice(4096)
	log := nvram.New(nil, nvram.Params{Size: 64 << 10})
	fs, err := Mkfs(ctx, dev, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cps := fs.CPCount()
	for i := 0; fs.CPCount() < cps+2; i++ {
		if _, err := fs.WriteFile(ctx, fmt.Sprintf("/d%d/f%d", i%3, i), randBytes(int64(i), 1500+700*(i%9)), 0644); err != nil {
			t.Fatal(err)
		}
	}
	// Everything since the last CP, of every kind, and still in NVRAM.
	ino, err := fs.ActiveView().Namei(ctx, "/d1/f1")
	mode := uint32(0604)
	for _, op := range []func() error{
		func() error { return err },
		func() error { _, err := fs.WriteFile(ctx, "/d0/new", randBytes(90, 3*BlockSize+5), 0600); return err },
		func() error { return fs.Write(ctx, ino, 2*BlockSize+9, randBytes(91, BlockSize)) },
		func() error { return fs.Truncate(ctx, ino, BlockSize+3) },
		func() error { return fs.Link(ctx, ino, RootIno, "hard") },
		func() error { return fs.Rename(ctx, RootIno, "d2", RootIno, "moved") },
		func() error { return fs.RemovePath(ctx, "/d0/f0") },
		func() error { _, err := fs.Symlink(ctx, RootIno, "ln", "/moved"); return err },
		func() error { return fs.SetAttr(ctx, ino, Attr{Mode: &mode}) },
	} {
		if err := op(); err != nil {
			t.Fatal(err)
		}
	}
	if len(log.Entries()) == 0 || fs.CPCount() != cps+2 {
		t.Fatalf("%d entries logged, %d CPs: the tail is not in NVRAM", len(log.Entries()), fs.CPCount()-cps)
	}
	want := treeSummary(t, fs)

	fs.Crash()
	fs2, err := Mount(ctx, dev, log, Options{})
	if err != nil {
		t.Fatalf("mount with replay: %v", err)
	}
	if got := treeSummary(t, fs2); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed tree:\n%v\nwant:\n%v", got, want)
	}
	check(t, fs2)
}

// treeSummary describes every path of fs's active tree: its type and
// mode, link count, size and contents (a symlink's target).
func treeSummary(t *testing.T, fs *FS) map[string]string {
	t.Helper()
	v := fs.ActiveView()
	out := make(map[string]string)
	var walk func(ino Inum, p string)
	walk = func(ino Inum, p string) {
		inode, err := v.GetInode(ctx, ino)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		var body string
		switch {
		case IsDir(inode.Mode):
			ents, err := v.Readdir(ctx, ino)
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			for _, e := range ents {
				if e.Name != "." && e.Name != ".." {
					walk(e.Ino, p+"/"+e.Name)
				}
			}
		case IsSymlink(inode.Mode):
			if body, err = v.Readlink(ctx, ino); err != nil {
				t.Fatalf("%s: %v", p, err)
			}
		default:
			buf := make([]byte, inode.Size)
			if _, err := v.ReadAt(ctx, ino, 0, buf); err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			body = fmt.Sprintf("%x", sha256.Sum256(buf))
		}
		out[p] = fmt.Sprintf("%o nlink %d size %d %s", inode.Mode, inode.Nlink, inode.Size, body)
	}
	walk(RootIno, "")
	return out
}

func TestAutoCPOnNVRAMHighWater(t *testing.T) {
	dev := storage.NewMemDevice(4096)
	log := nvram.New(nil, nvram.Params{Size: 64 << 10})
	fs, _ := Mkfs(ctx, dev, log, Options{})
	before := fs.CPCount()
	// Write well past the 32 KB high-water mark.
	for i := 0; i < 40; i++ {
		fs.WriteFile(ctx, fmt.Sprintf("/f%d", i), randBytes(int64(i), 2048), 0644)
	}
	if fs.CPCount() == before {
		t.Fatal("no automatic CP despite NVRAM pressure")
	}
	check(t, fs)
}

// TestNoSpace fills a tiny volume one block at a time. The write that
// is refused, and the free count it is refused at, are pinned: a count
// of free blocks that drifts from the map (by the fsinfo blocks, say)
// moves them.
func TestNoSpace(t *testing.T) {
	fs := newFS(t, 64) // tiny volume
	var lastErr error
	i := 0
	for ; i < 100; i++ {
		_, lastErr = fs.WriteFile(ctx, fmt.Sprintf("/f%d", i), randBytes(int64(i), BlockSize), 0644)
		if lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, ErrNoSpace) {
		t.Fatalf("filling the volume gave %v, want ErrNoSpace", lastErr)
	}
	if free := fs.FreeBlocks(); i != 48 || free != 8 {
		t.Errorf("write %d refused with %d blocks free, want write 48 with 8", i, free)
	}
	// The filesystem must still be consistent afterwards.
	check(t, fs)
}

func TestInodeReuseBumpsGeneration(t *testing.T) {
	fs := newFS(t, 512)
	ino1, _ := fs.Create(ctx, RootIno, "a", 0644, 0, 0)
	st1, _ := fs.GetInode(ctx, ino1)
	fs.Remove(ctx, RootIno, "a")
	ino2, _ := fs.Create(ctx, RootIno, "b", 0644, 0, 0)
	if ino2 != ino1 {
		t.Fatalf("inode not reused: got %d, want %d", ino2, ino1)
	}
	st2, _ := fs.GetInode(ctx, ino2)
	if st2.Gen <= st1.Gen {
		t.Fatalf("generation not bumped: %d -> %d", st1.Gen, st2.Gen)
	}
	check(t, fs)
}

func TestFsinfoRedundancy(t *testing.T) {
	dev := storage.NewMemDevice(512)
	fs, _ := Mkfs(ctx, dev, nil, Options{})
	fs.WriteFile(ctx, "/f", []byte("x"), 0644)
	fs.CP(ctx)
	// Corrupt fsinfo copy A; mount must fall back to copy B.
	bad := make([]byte, BlockSize)
	if err := dev.WriteBlock(ctx, 0, bad); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(ctx, dev, nil, Options{})
	if err != nil {
		t.Fatalf("mount with corrupt fsinfo A: %v", err)
	}
	if _, err := fs2.ActiveView().ReadFile(ctx, "/f"); err != nil {
		t.Fatal(err)
	}
}

func TestGenerationAdvances(t *testing.T) {
	fs := newFS(t, 512)
	g := fs.Generation()
	fs.CP(ctx)
	if fs.Generation() != g+1 {
		t.Fatalf("generation %d after CP, want %d", fs.Generation(), g+1)
	}
}
