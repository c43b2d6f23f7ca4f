package workload

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/wafl"
)

var ctx = context.Background()

func newFS(t *testing.T, blocks int) *wafl.FS {
	t.Helper()
	fs, err := wafl.Mkfs(ctx, storage.NewMemDevice(blocks), nil, wafl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestGenerateIsDeterministic(t *testing.T) {
	spec := Spec{Seed: 5, Files: 40, DirFanout: 6, MeanFileSize: 8 << 10, Symlinks: 3, Hardlinks: 2}
	a := newFS(t, 4096)
	b := newFS(t, 4096)
	pa, err := Generate(ctx, a, spec)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := Generate(ctx, b, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(pa) != len(pb) {
		t.Fatalf("path counts differ: %d vs %d", len(pa), len(pb))
	}
	da, _ := TreeDigest(ctx, a.ActiveView(), "/")
	db, _ := TreeDigest(ctx, b.ActiveView(), "/")
	if diffs := DiffDigests(da, db); len(diffs) > 0 {
		t.Fatalf("same seed produced different trees: %v", diffs[0])
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	a := newFS(t, 4096)
	b := newFS(t, 4096)
	Generate(ctx, a, Spec{Seed: 1, Files: 20, DirFanout: 4, MeanFileSize: 4 << 10})
	Generate(ctx, b, Spec{Seed: 2, Files: 20, DirFanout: 4, MeanFileSize: 4 << 10})
	da, _ := TreeDigest(ctx, a.ActiveView(), "/")
	db, _ := TreeDigest(ctx, b.ActiveView(), "/")
	if len(DiffDigests(da, db)) == 0 {
		t.Fatal("different seeds produced identical trees")
	}
}

func TestGenerateWithPrefix(t *testing.T) {
	fs := newFS(t, 4096)
	paths, err := Generate(ctx, fs, Spec{Seed: 3, Files: 15, DirFanout: 4, MeanFileSize: 4 << 10, Prefix: "/q0", Symlinks: 2, Hardlinks: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if len(p) < 4 || p[:4] != "/q0/" {
			t.Fatalf("path %q escapes the prefix", p)
		}
	}
	// Links live under the prefix too.
	if _, err := fs.ActiveView().Namei(ctx, "/q0/link0"); err != nil {
		t.Fatalf("symlink not under prefix: %v", err)
	}
	if _, err := fs.ActiveView().Namei(ctx, "/q0/hard0"); err != nil {
		t.Fatalf("hardlink not under prefix: %v", err)
	}
}

func TestAgeFragmentsFreeSpace(t *testing.T) {
	fs := newFS(t, 8192)
	paths, err := Generate(ctx, fs, Spec{Seed: 4, Files: 100, DirFanout: 8, MeanFileSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	contiguity := func() float64 {
		// Fraction of used blocks whose successor block is also used:
		// a proxy for how contiguous allocations are.
		used, runs := 0, 0
		for b := wafl.BlockNo(8); int(b) < fs.NumBlocks()-1; b++ {
			if fs.BlockMapWord(b)&wafl.ActiveBit != 0 {
				used++
				if fs.BlockMapWord(b+1)&wafl.ActiveBit != 0 {
					runs++
				}
			}
		}
		if used == 0 {
			return 0
		}
		return float64(runs) / float64(used)
	}
	fs.CP(ctx)
	before := contiguity()
	alive, err := Age(ctx, fs, paths, AgeSpec{Seed: 5, Rounds: 8, ChurnPerRound: 60, MeanFileSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(alive) == 0 {
		t.Fatal("aging killed everything")
	}
	fs.CP(ctx)
	after := contiguity()
	if after >= before {
		t.Fatalf("aging did not fragment: contiguity %.3f -> %.3f", before, after)
	}
	if err := fs.MustCheck(ctx); err != nil {
		t.Fatal(err)
	}
	// Every surviving path is readable.
	for _, p := range alive[:10] {
		if _, err := fs.ActiveView().ReadFile(ctx, p); err != nil {
			t.Fatalf("survivor %s unreadable: %v", p, err)
		}
	}
}

func TestTreeDigestDetectsEveryKindOfChange(t *testing.T) {
	fs := newFS(t, 2048)
	fs.WriteFile(ctx, "/a/f.txt", []byte("v1"), 0644)
	base, err := TreeDigest(ctx, fs.ActiveView(), "/")
	if err != nil {
		t.Fatal(err)
	}

	mutate := []struct {
		name string
		fn   func()
	}{
		{"content", func() { fs.WriteFile(ctx, "/a/f.txt", []byte("v2"), 0644) }},
		{"mode", func() {
			ino, _ := fs.ActiveView().Namei(ctx, "/a/f.txt")
			m := uint32(0600)
			fs.SetAttr(ctx, ino, wafl.Attr{Mode: &m})
		}},
		{"uid", func() {
			ino, _ := fs.ActiveView().Namei(ctx, "/a/f.txt")
			u := uint32(77)
			fs.SetAttr(ctx, ino, wafl.Attr{UID: &u})
		}},
		{"new file", func() { fs.WriteFile(ctx, "/a/g.txt", []byte("x"), 0644) }},
		{"removal", func() { fs.RemovePath(ctx, "/a/g.txt") }},
	}
	prev := base
	for _, m := range mutate {
		m.fn()
		cur, err := TreeDigest(ctx, fs.ActiveView(), "/")
		if err != nil {
			t.Fatal(err)
		}
		if len(DiffDigests(prev, cur)) == 0 {
			t.Fatalf("%s change not detected by digest", m.name)
		}
		prev = cur
	}
}

func TestTreeDigestSubtree(t *testing.T) {
	fs := newFS(t, 2048)
	fs.WriteFile(ctx, "/in/x.txt", []byte("in"), 0644)
	fs.WriteFile(ctx, "/out/y.txt", []byte("out"), 0644)
	d, err := TreeDigest(ctx, fs.ActiveView(), "/in")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d["/x.txt"]; !ok {
		t.Fatalf("subtree digest missing /x.txt: %v", keys(d))
	}
	for p := range d {
		if len(p) >= 2 && p[:2] == "/o" {
			t.Fatalf("subtree digest leaked %s", p)
		}
	}
}

func keys(m map[string]Entry) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// drawers returns how many drawer goroutines (drawAndWrite's) exist.
// It counts them by their stacks, not by runtime.NumGoroutine: a
// drawer an earlier test joined may not have exited yet, and other
// goroutines come and go.
func drawers() int {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("workload.drawAndWrite.func1("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// settledDrawers waits briefly for drawers that have been joined to
// exit, and returns how many are left.
func settledDrawers() int {
	n := drawers()
	for deadline := time.Now().Add(time.Second); n > 0 && time.Now().Before(deadline); n = drawers() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestGenerateFailureStopsDrawer: when the writer fails, Generate
// returns its error, wrapped, and its drawer — which had files drawn
// ahead and was waiting for room to send more — is gone.
func TestGenerateFailureStopsDrawer(t *testing.T) {
	fs := newFS(t, 256)
	_, err := Generate(ctx, fs, Spec{Seed: 6, Files: 400, DirFanout: 8, MeanFileSize: 16 << 10})
	if !errors.Is(err, wafl.ErrNoSpace) || !strings.HasPrefix(err.Error(), "workload: writing /") {
		t.Fatalf("Generate onto a 1 MiB volume: %v, want a wrapped ErrNoSpace", err)
	}
	if n := settledDrawers(); n != 0 {
		t.Fatalf("%d drawers left after a failed Generate", n)
	}
}

// TestAgeFailureStopsDrawer: an Age that runs out of space part way
// through a round returns the writer's error, wrapped, and leaves no
// drawer behind.
func TestAgeFailureStopsDrawer(t *testing.T) {
	fs := newFS(t, 1024)
	paths, err := Generate(ctx, fs, Spec{Seed: 7, Files: 40, DirFanout: 8, MeanFileSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	cps := fs.CPCount()
	_, err = Age(ctx, fs, paths, AgeSpec{Seed: 8, Rounds: 50, ChurnPerRound: 30, MeanFileSize: 64 << 10})
	if !errors.Is(err, wafl.ErrNoSpace) || !strings.HasPrefix(err.Error(), "workload: writing /") {
		t.Fatalf("aging a 4 MiB volume with 64 KiB files: %v, want a wrapped ErrNoSpace", err)
	}
	if fs.CPCount() == cps {
		t.Fatal("Age failed in its first round; the test wants a failure after some")
	}
	if n := settledDrawers(); n != 0 {
		t.Fatalf("%d drawers left after a failed Age", n)
	}
}
