// Package allocpin is the bracket the allocation pins count inside: the
// tests that hold a path's heap objects per MiB under a ceiling. It
// reads runtime.MemStats on either side of the work and, when the
// ALLOC_PROFILE_DIR environment variable names a directory, writes the
// allocs profile there at the same two points, so that `go tool pprof
// -base` of the pair shows the sites of exactly the objects the pin
// counted and nothing its set-up allocated (`make alloc-profile`).
package allocpin

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"testing"
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
