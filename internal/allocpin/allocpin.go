// Package allocpin is the bracket the allocation pins count inside: the
// tests that hold a path's heap objects per MiB under a ceiling. It
// reads runtime.MemStats on either side of the work and, when the
// ALLOC_PROFILE_DIR environment variable names a directory, writes the
// allocs profile there at the same two points, so that `go tool pprof
// -base` of the pair shows the sites of exactly the objects the pin
// counted and nothing its set-up allocated (`make alloc-profile`).
// AwaitFree is the wait before a pin that counts on a dropped
// storage.MemDevice's slabs being back in bufpool.
package allocpin

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"testing"

	"repro/internal/bufpool"
)

// Count runs work and returns the heap objects it allocated. With
// ALLOC_PROFILE_DIR set it also writes <dir>/<test>.before.pb.gz and
// <dir>/<test>.after.pb.gz. Writing the first costs objects of its own
// that the second includes, all of them under runtime/pprof frames.
// Only a test run with -memprofilerate 1 samples every allocation.
func Count(tb testing.TB, work func()) uint64 {
	tb.Helper()
	snapshot(tb, "before")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	work()
	runtime.ReadMemStats(&after)
	snapshot(tb, "after")
	return after.Mallocs - before.Mallocs
}

// snapshot writes the allocs profile as of now, if asked to. The
// collection first publishes every allocation made so far into it.
func snapshot(tb testing.TB, side string) {
	tb.Helper()
	dir := os.Getenv("ALLOC_PROFILE_DIR")
	if dir == "" {
		return
	}
	runtime.GC()
	f, err := os.Create(filepath.Join(dir, tb.Name()+"."+side+".pb.gz"))
	if err != nil {
		tb.Fatal(err)
	}
	err = pprof.Lookup("allocs").WriteTo(f, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		tb.Fatal(err)
	}
}

// AwaitFree runs collections until at least want buffers of n's class
// wait in bufpool, as they do once a dropped device has been found
// unreachable and its finalizer has handed its slabs back. It fails tb
// after 20 collections.
func AwaitFree(tb testing.TB, n, want int) {
	tb.Helper()
	for i := 0; bufpool.Free(n) < want; i++ {
		if i == 20 {
			tb.Fatalf("%d collections after a device was dropped, %d of %d buffers of %d bytes are back in bufpool", i, bufpool.Free(n), want, n)
		}
		runtime.GC()
	}
}
