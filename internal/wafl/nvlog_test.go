package wafl

import (
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
	if got, want := len(fs.enc.buf), 1+4+8+4+len(data); got != want || cap(fs.enc.buf) > want+want/4 {
		t.Fatalf("write entry is %d bytes in a %d-byte scratch, want %d sized up front", got, cap(fs.enc.buf), want)
	}

	fs.SetNVRAMLogging(false)
	fs.enc.buf = fs.enc.buf[:0]
	appends := fs.log.Appends()
	if n := testing.AllocsPerRun(100, logWrite); n != 0 {
		t.Fatalf("logging off: %v allocs per write, want 0", n)
	}
	if len(fs.enc.buf) != 0 || fs.log.Appends() != appends {
		t.Fatal("logging off: an entry was still encoded or recorded")
	}
}
