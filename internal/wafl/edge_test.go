package wafl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/storage"
)

func TestNameValidation(t *testing.T) {
	fs := newFS(t, 512)
	for _, name := range []string{"", ".", "..", "has/slash"} {
		if _, err := fs.Create(ctx, RootIno, name, 0644, 0, 0); err == nil {
			t.Errorf("Create(%q) accepted", name)
		}
		if _, err := fs.Mkdir(ctx, RootIno, name, 0755, 0, 0); err == nil {
			t.Errorf("Mkdir(%q) accepted", name)
		}
	}
	long := strings.Repeat("x", MaxNameLen+1)
	if _, err := fs.Create(ctx, RootIno, long, 0644, 0, 0); !errors.Is(err, ErrNameTooLong) {
		t.Errorf("overlong name err = %v", err)
	}
	// Exactly MaxNameLen is fine.
	edge := strings.Repeat("y", MaxNameLen)
	if _, err := fs.Create(ctx, RootIno, edge, 0644, 0, 0); err != nil {
		t.Errorf("max-length name rejected: %v", err)
	}
	check(t, fs)
}

func TestSymlinkLoopDetected(t *testing.T) {
	fs := newFS(t, 512)
	if _, err := fs.Symlink(ctx, RootIno, "a", "/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Symlink(ctx, RootIno, "b", "/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ActiveView().ReadFile(ctx, "/a/whatever"); !errors.Is(err, ErrSymlinkLoop) {
		t.Fatalf("err = %v, want ErrSymlinkLoop", err)
	}
}

func TestRelativeSymlinkResolvesFromItsDirectory(t *testing.T) {
	fs := newFS(t, 512)
	fs.WriteFile(ctx, "/dir/target/data.txt", []byte("found it"), 0644)
	dirIno, _ := fs.ActiveView().Namei(ctx, "/dir")
	if _, err := fs.Symlink(ctx, dirIno, "ln", "target"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ActiveView().ReadFile(ctx, "/dir/ln/data.txt")
	if err != nil || string(got) != "found it" {
		t.Fatalf("relative symlink: %q, %v", got, err)
	}
}

func TestDeeplyNestedTree(t *testing.T) {
	fs := newFS(t, 2048)
	path := ""
	for i := 0; i < 40; i++ {
		path += fmt.Sprintf("/level%02d", i)
	}
	if _, err := fs.WriteFile(ctx, path+"/leaf.txt", []byte("deep"), 0644); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ActiveView().ReadFile(ctx, path+"/leaf.txt")
	if err != nil || string(got) != "deep" {
		t.Fatalf("deep read: %v", err)
	}
	check(t, fs)
}

func TestWriteAtArbitraryOffsets(t *testing.T) {
	fs := newFS(t, 1024)
	ino, _ := fs.Create(ctx, RootIno, "f", 0644, 0, 0)
	// Unaligned overlapping writes.
	fs.Write(ctx, ino, 100, bytes.Repeat([]byte{1}, 5000))
	fs.Write(ctx, ino, 3000, bytes.Repeat([]byte{2}, 100))
	fs.Write(ctx, ino, 0, []byte{9})
	got, _ := fs.ActiveView().ReadFile(ctx, "/f")
	if len(got) != 5100 {
		t.Fatalf("size %d, want 5100", len(got))
	}
	if got[0] != 9 || got[99] != 0 || got[100] != 1 || got[2999] != 1 || got[3000] != 2 || got[3099] != 2 || got[3100] != 1 {
		t.Fatal("overlapping writes merged wrong")
	}
	check(t, fs)
}

func TestReadAtEOFSemantics(t *testing.T) {
	fs := newFS(t, 512)
	ino, _ := fs.WriteFile(ctx, "/f", []byte("12345"), 0644)
	buf := make([]byte, 10)
	n, err := fs.ActiveView().ReadAt(ctx, ino, 0, buf)
	if err != nil || n != 5 {
		t.Fatalf("short read: n=%d err=%v", n, err)
	}
	n, err = fs.ActiveView().ReadAt(ctx, ino, 100, buf)
	if err != nil || n != 0 {
		t.Fatalf("read past EOF: n=%d err=%v", n, err)
	}
}

func TestReadAtDirectoryRejected(t *testing.T) {
	fs := newFS(t, 512)
	buf := make([]byte, 8)
	if _, err := fs.ActiveView().ReadAt(ctx, RootIno, 0, buf); !errors.Is(err, ErrIsDir) {
		t.Fatalf("err = %v, want ErrIsDir", err)
	}
	if _, err := fs.ActiveView().ReadFile(ctx, "/"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("ReadFile(/) err = %v, want ErrIsDir", err)
	}
}

func TestQtreeFlag(t *testing.T) {
	fs := newFS(t, 512)
	ino, _ := fs.Mkdir(ctx, RootIno, "q1", 0755, 0, 0)
	if err := fs.SetQtreeRoot(ctx, ino, 7); err != nil {
		t.Fatal(err)
	}
	st, _ := fs.GetInode(ctx, ino)
	if st.Flags&FlagQtreeRoot == 0 || st.QtreeID != 7 {
		t.Fatalf("qtree attrs = %+v", st)
	}
	// Survives a remount.
	fs.CP(ctx)
	check(t, fs)
}

func TestXModeRoundTripsThroughEverything(t *testing.T) {
	// The paper (§3): NetApp's dump extends the format to carry DOS
	// bits and NT ACLs "created on our multi-protocol file system".
	// XMode is that opaque extension; it must survive CP + remount.
	dev := storage.NewMemDevice(512)
	fs, _ := Mkfs(ctx, dev, nil, Options{})
	ino, _ := fs.Create(ctx, RootIno, "w.doc", 0644, 0, 0)
	xm := uint32(0xC0FFEE)
	fs.SetAttr(ctx, ino, Attr{XMode: &xm})
	fs.CP(ctx)
	fs2, err := Mount(ctx, dev, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := fs2.GetInode(ctx, ino)
	if st.XMode != 0xC0FFEE {
		t.Fatalf("XMode = %#x", st.XMode)
	}
}

func TestLinkToDirectoryRejected(t *testing.T) {
	fs := newFS(t, 512)
	dir, _ := fs.Mkdir(ctx, RootIno, "d", 0755, 0, 0)
	if err := fs.Link(ctx, dir, RootIno, "hard-to-dir"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("err = %v, want ErrIsDir", err)
	}
}

func TestRenameOntoExistingFileReplaces(t *testing.T) {
	fs := newFS(t, 512)
	fs.WriteFile(ctx, "/old", []byte("mover"), 0644)
	fs.WriteFile(ctx, "/victim", []byte("replaced"), 0644)
	if err := fs.Rename(ctx, RootIno, "old", RootIno, "victim"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ActiveView().ReadFile(ctx, "/victim")
	if err != nil || string(got) != "mover" {
		t.Fatalf("victim = %q, %v", got, err)
	}
	if _, err := fs.ActiveView().ReadFile(ctx, "/old"); !errors.Is(err, ErrNotFound) {
		t.Fatal("source still present")
	}
	check(t, fs)
}

func TestRenameOntoDirectoryRejected(t *testing.T) {
	fs := newFS(t, 512)
	fs.WriteFile(ctx, "/f", []byte("x"), 0644)
	fs.Mkdir(ctx, RootIno, "d", 0755, 0, 0)
	if err := fs.Rename(ctx, RootIno, "f", RootIno, "d"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("err = %v, want ErrIsDir", err)
	}
}

func TestRenameNoopOntoItself(t *testing.T) {
	fs := newFS(t, 512)
	fs.WriteFile(ctx, "/f", []byte("same"), 0644)
	fIno, _ := fs.ActiveView().Namei(ctx, "/f")
	// Renaming onto another name for the same inode is a no-op.
	fs.Link(ctx, fIno, RootIno, "g")
	if err := fs.Rename(ctx, RootIno, "f", RootIno, "g"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ActiveView().ReadFile(ctx, "/f"); err != nil {
		t.Fatalf("noop rename destroyed source: %v", err)
	}
	check(t, fs)
}

func TestSnapshotViewIsReadOnlySurface(t *testing.T) {
	fs := newFS(t, 512)
	fs.WriteFile(ctx, "/f", []byte("frozen"), 0644)
	fs.CreateSnapshot(ctx, "s")
	sv, _ := fs.SnapshotView("s")
	if !sv.IsSnapshot() || sv.SnapshotName() != "s" {
		t.Fatal("snapshot view identity wrong")
	}
	if fs.ActiveView().IsSnapshot() {
		t.Fatal("active view claims to be a snapshot")
	}
	// Reading a never-existing inode through the snapshot errors.
	if _, err := sv.GetInode(ctx, Inum(5000)); err == nil {
		t.Fatal("snapshot GetInode(5000) succeeded")
	}
}

func TestCacheEffectiveness(t *testing.T) {
	fs := newFS(t, 1024)
	data := randBytes(81, 20*BlockSize)
	ino, _ := fs.WriteFile(ctx, "/f", data, 0644)
	fs.CP(ctx)
	buf := make([]byte, len(data))
	fs.ActiveView().ReadAt(ctx, ino, 0, buf)
	h1, _ := fs.CacheStats()
	fs.ActiveView().ReadAt(ctx, ino, 0, buf)
	h2, _ := fs.CacheStats()
	if h2 <= h1 {
		t.Fatalf("second read produced no cache hits (%d -> %d)", h1, h2)
	}
}

func TestMountRejectsWrongSizeDevice(t *testing.T) {
	dev := storage.NewMemDevice(512)
	fs, _ := Mkfs(ctx, dev, nil, Options{})
	fs.CP(ctx)
	// Clone onto a bigger device: mount must refuse (physical
	// non-portability, paper §4).
	big := storage.NewMemDevice(1024)
	buf := make([]byte, BlockSize)
	for b := 0; b < 512; b++ {
		dev.ReadBlock(ctx, b, buf)
		big.WriteBlock(ctx, b, buf)
	}
	if _, err := Mount(ctx, big, nil, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mount on larger device err = %v, want ErrCorrupt", err)
	}
}

func TestMkfsTooSmall(t *testing.T) {
	if _, err := Mkfs(ctx, storage.NewMemDevice(8), nil, Options{}); err == nil {
		t.Fatal("8-block volume formatted")
	}
}

func TestManySmallFilesAcrossManyCPs(t *testing.T) {
	fs := newFS(t, 4096)
	for batch := 0; batch < 10; batch++ {
		for i := 0; i < 30; i++ {
			p := fmt.Sprintf("/b%d/f%d", batch, i)
			if _, err := fs.WriteFile(ctx, p, randBytes(int64(batch*100+i), 2048), 0644); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.CP(ctx); err != nil {
			t.Fatal(err)
		}
	}
	check(t, fs)
	// Everything still readable.
	for batch := 0; batch < 10; batch++ {
		for i := 0; i < 30; i++ {
			p := fmt.Sprintf("/b%d/f%d", batch, i)
			got, err := fs.ActiveView().ReadFile(ctx, p)
			if err != nil || !bytes.Equal(got, randBytes(int64(batch*100+i), 2048)) {
				t.Fatalf("%s corrupted: %v", p, err)
			}
		}
	}
}

// failNextRead is a device whose next read fails with err.
type failNextRead struct {
	storage.Device
	err error
}

func (d *failNextRead) ReadBlock(ctx context.Context, bno int, buf []byte) error {
	if err := d.err; err != nil {
		d.err = nil
		return err
	}
	return d.Device.ReadBlock(ctx, bno, buf)
}

// TestMkdirAllPassesOtherErrorsThrough: only ErrNotFound means a
// component is missing. An error that merely quotes that phrase (here a
// read error naming a path) used to be answered with Mkdir, which then
// reported the existing directory as ErrExists.
func TestMkdirAllPassesOtherErrorsThrough(t *testing.T) {
	dev := &failNextRead{Device: storage.NewMemDevice(512)}
	fs, err := Mkfs(ctx, dev, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.MkdirAll(ctx, "/a", 0755); err != nil {
		t.Fatal(err)
	}
	if err := fs.CP(ctx); err != nil {
		t.Fatal(err)
	}
	if fs, err = Mount(ctx, dev, nil, Options{}); err != nil { // cold cache
		t.Fatal(err)
	}
	ioErr := fmt.Errorf("read %q: input/output error", "/vol/"+ErrNotFound.Error())
	dev.err = ioErr
	if _, err := fs.MkdirAll(ctx, "/a/b", 0755); !errors.Is(err, ioErr) {
		t.Fatalf("MkdirAll = %v, want the read error", err)
	}
}
