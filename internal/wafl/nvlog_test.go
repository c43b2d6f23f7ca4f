package wafl

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/nvram"
	"repro/internal/storage"
)

// TestLogEntryAllocs pins what logging one 64 KiB write costs the heap
// once NVRAM's arena has filled and been reset, as it has after a
// filer's first consistency point: nothing. The entry is encoded once,
// into the filesystem's scratch, at its final size, and NVRAM copies it
// into room its arena kept. Nothing is built at all when logging is off
// (Table 8's NVRAM-bypass restore).
func TestLogEntryAllocs(t *testing.T) {
	fs, err := Mkfs(ctx, storage.NewMemDevice(1024), nvram.New(nil, nvram.DefaultParams()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := randBytes(9, 16*BlockSize)
	logWrite := func() { fs.logWrite(ctx, 7, 0, data) }
	for range 101 { // AllocsPerRun's warm-up run and its 100
		logWrite()
	}
	fs.log.Reset()
	if n := testing.AllocsPerRun(100, logWrite); n != 0 {
		t.Fatalf("logging a write: %v allocs per entry, want 0", n)
	}
	if got, want := len(fs.enc.B), 1+4+8+4+len(data); got != want || cap(fs.enc.B) > want+want/4 {
		t.Fatalf("write entry is %d bytes in a %d-byte scratch, want %d sized up front", got, cap(fs.enc.B), want)
	}

	fs.SetNVRAMLogging(false)
	fs.enc.B = fs.enc.B[:0]
	appends := fs.log.Appends()
	if n := testing.AllocsPerRun(100, logWrite); n != 0 {
		t.Fatalf("logging off: %v allocs per write, want 0", n)
	}
	if len(fs.enc.B) != 0 || fs.log.Appends() != appends {
		t.Fatal("logging off: an entry was still encoded or recorded")
	}
}

// TestLogEntryBytes pins the NVRAM entries of one operation of each
// kind, byte for byte: NVRAM charges per byte, so an encoding change
// moves every simulated write. The digest is of the entries in log
// order, each prefixed by its length.
func TestLogEntryBytes(t *testing.T) {
	nv := nvram.New(nil, nvram.DefaultParams())
	fs, err := Mkfs(ctx, storage.NewMemDevice(1024), nv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nv.Reset()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	f, err := fs.Create(ctx, RootIno, "file", 0640, 7, 8)
	must(err)
	d, err := fs.Mkdir(ctx, RootIno, "dir", 0755, 0, 0)
	must(err)
	_, err = fs.Symlink(ctx, d, "ln", "../file")
	must(err)
	must(fs.Write(ctx, f, 3, []byte("entry bytes")))
	must(fs.Truncate(ctx, f, 5))
	mode, mtime, qtree := uint32(0600), int64(-42), uint32(9)
	must(fs.SetAttr(ctx, f, Attr{Mode: &mode, Mtime: &mtime, QtreeID: &qtree}))
	must(fs.Link(ctx, f, d, "hard"))
	must(fs.Rename(ctx, d, "hard", RootIno, "moved"))
	must(fs.Remove(ctx, RootIno, "moved"))
	must(fs.Remove(ctx, d, "ln"))
	must(fs.Rmdir(ctx, RootIno, "dir"))
	h := sha256.New()
	entries := nv.Entries()
	for _, e := range entries {
		h.Write([]byte{byte(len(e))})
		h.Write(e)
	}
	if got, want := len(entries), 11; got != want {
		t.Fatalf("%d entries logged, want %d", got, want)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != nvlogDigest {
		t.Fatalf("NVRAM entries digest %s, want %s", got, nvlogDigest)
	}
}

const nvlogDigest = "73e61833927c6b0805ae80109b22cd7f3a5ee0fe236a8a8e93d6b91288b7061c"
