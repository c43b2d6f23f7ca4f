package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
)

// mirrorPair is a serve-side catalog base and its standby journal in a
// fresh directory, with the checks every mirror test makes.
type mirrorPair struct {
	t            *testing.T
	base         string // primary journal is catalogPath(base)
	pPath, sPath string
}

// newMirrorPair records the standby beside the base, as serve -standby
// does, so that every open of the base opens the pair.
func newMirrorPair(t *testing.T) *mirrorPair {
	dir := t.TempDir()
	base := filepath.Join(dir, "landing.dump")
	m := &mirrorPair{t: t, base: base, pPath: catalogPath(base), sPath: filepath.Join(dir, "standby.catalog")}
	if err := bindStandby(m.base, m.sPath); err != nil {
		t.Fatal(err)
	}
	return m
}

func (m *mirrorPair) open() (*catalog.Catalog, func()) {
	m.t.Helper()
	cat, done, err := openCatalog(m.base)
	if err != nil {
		m.t.Fatalf("openCatalog: %v", err)
	}
	return cat, done
}

func (m *mirrorPair) appendSet(cat *catalog.Catalog, snap string, date int64) {
	m.t.Helper()
	if _, err := cat.AppendDumpSet(catalog.DumpSet{
		Engine: catalog.Logical, FSID: "vol0", Snap: snap, Date: date,
		Media: []catalog.MediaRef{{Volume: "t0"}},
	}); err != nil {
		m.t.Fatal(err)
	}
}

// equal fails unless both journal files hold the same bytes; it
// returns them.
func (m *mirrorPair) equal() []byte {
	m.t.Helper()
	pb, _ := os.ReadFile(m.pPath)
	sb, _ := os.ReadFile(m.sPath)
	if !bytes.Equal(pb, sb) {
		m.t.Fatalf("standby (%d bytes) != primary (%d bytes)", len(sb), len(pb))
	}
	return pb
}

// TestServeCatalogMirror: the serve-side standby journal tracks the
// primary through appends, is extended from a clean lagging prefix at
// open, and is repaired from the primary when its bytes diverged.
func TestServeCatalogMirror(t *testing.T) {
	m := newMirrorPair(t)
	cat, done := m.open()
	for i, snap := range []string{"mon", "tue"} {
		m.appendSet(cat, snap, int64(100+i))
	}
	m.equal()
	done()

	// Lag the standby by truncating it to a frame boundary mid-way;
	// reopening must extend the clean prefix.
	pb, err := os.ReadFile(m.pPath)
	if err != nil {
		t.Fatal(err)
	}
	var firstFrame int64
	if _, err := catalog.ScanFrames(pb, func(off int64, payload []byte) error {
		if firstFrame == 0 {
			firstFrame = off + int64(len(payload)) + 12
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(m.sPath, firstFrame); err != nil {
		t.Fatal(err)
	}
	_, done = m.open()
	m.equal()
	done()

	// Diverge the standby (flip a byte); reopening repairs it.
	sb, err := os.ReadFile(m.sPath)
	if err != nil {
		t.Fatal(err)
	}
	sb[len(sb)/2] ^= 0xFF
	if err := os.WriteFile(m.sPath, sb, 0644); err != nil {
		t.Fatal(err)
	}
	replay, done := m.open()
	m.equal()

	// The replicated catalog still replays every set through the mirror.
	if got := len(replay.Sets()); got != 2 {
		t.Fatalf("mirror replays %d sets, want 2", got)
	}
	done()
}

// TestServeCatalogSurvivesLosingEitherCopy: the two failures -standby
// exists for. One journal file of the pair is removed, or has a byte
// flipped — inside its first frame, so nothing of it is valid, and
// mid-file. The next open must replay every acknowledged set, leave
// both files byte-identical to what was acknowledged, and land the next
// append in both. (With the primary as the victim the old mirror wiped
// the standby, or overwrote it with the corrupt bytes.)
func TestServeCatalogSurvivesLosingEitherCopy(t *testing.T) {
	flip := func(at func(n int) int) func(t *testing.T, path string) {
		return func(t *testing.T, path string) {
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			buf[at(len(buf))] ^= 0xFF
			if err := os.WriteFile(path, buf, 0644); err != nil {
				t.Fatal(err)
			}
		}
	}
	damages := []struct {
		name string
		do   func(t *testing.T, path string)
	}{
		{"removed", func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}},
		{"flipped in the first frame", flip(func(int) int { return 20 })},
		{"flipped mid-file", flip(func(n int) int { return n / 2 })},
	}
	for _, victim := range []string{"primary", "standby"} {
		for _, damage := range damages {
			t.Run(victim+" "+damage.name, func(t *testing.T) {
				m := newMirrorPair(t)
				cat, done := m.open()
				for i, snap := range []string{"mon", "tue", "wed"} {
					m.appendSet(cat, snap, int64(100+i))
				}
				acked := m.equal()
				done()

				path := m.pPath
				if victim == "standby" {
					path = m.sPath
				}
				damage.do(t, path)

				cat, done = m.open()
				defer done()
				if got := len(cat.Sets()); got != 3 {
					t.Fatalf("%d sets replay after the damage, want all 3 acknowledged", got)
				}
				if healed := m.equal(); !bytes.Equal(healed, acked) {
					t.Fatalf("journals hold %d bytes after reopen, want the %d acknowledged", len(healed), len(acked))
				}
				m.appendSet(cat, "thu", 103)
				if grown := m.equal(); len(grown) <= len(acked) || !bytes.Equal(grown[:len(acked)], acked) {
					t.Fatalf("next append: journals hold %d bytes, want the %d acknowledged plus one set", len(grown), len(acked))
				}
			})
		}
	}
}

// stdoutOf runs fn and returns what it printed.
func stdoutOf(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	fn()
	os.Stdout = saved
	w.Close()
	return <-out
}

// TestServeStandbyEndToEnd pushes over loopback into a serve with a
// standby journal: the set is verified on landing and cataloged
// healthy, both journal files hold the same bytes, and `replica status`
// agrees — before and after the primary file is lost.
func TestServeStandbyEndToEnd(t *testing.T) {
	dir := t.TempDir()
	vol := mkVol(t, dir, "home", "mirrored payload\n")
	m := newMirrorPair(t)

	push := func() {
		t.Helper()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		served := make(chan error, 1)
		go func() { served <- serveOn(l, m.base, m.sPath, true, 5*time.Second, nil, nil) }()
		if err := run([]string{"-vol", vol, "push", "-to", l.Addr().String()}); err != nil {
			t.Fatalf("push: %v", err)
		}
		select {
		case err := <-served:
			if err != nil {
				t.Fatalf("serve: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("serve did not finish")
		}
	}
	status := func() string {
		t.Helper()
		return stdoutOf(t, func() {
			if err := run([]string{"replica", "status", "-primary", m.pPath, "-standby", m.sPath}); err != nil {
				t.Errorf("replica status: %v", err)
			}
		})
	}

	push()
	if len(m.equal()) == 0 {
		t.Fatal("nothing journaled")
	}
	if out := status(); !strings.Contains(out, "state: in sync") || strings.Count(out, ", 1 sets") != 2 {
		t.Fatalf("replica status after the push:\n%s", out)
	}
	cat, done := m.open()
	sets := cat.Sets()
	if len(sets) != 1 || sets[0].FSID != vol || cat.HealthLabel(sets[0].ID) != "ok" {
		t.Fatalf("served catalog: %+v, health %q; want the one pushed set, healthy",
			sets, cat.HealthLabel(sets[0].ID))
	}
	done()
	if err := run([]string{"-vol", m.base, "scrub"}); err != nil {
		t.Fatalf("scrub of the served catalog: %v", err)
	}

	// The serve host loses its primary journal. status only reads: it
	// names the standby as the copy that leads; the next push's open
	// rebuilds the primary from it and both sets are there.
	if err := os.Remove(m.pPath); err != nil {
		t.Fatal(err)
	}
	if out := status(); !strings.Contains(out, fmt.Sprintf("state: standby leads by %d bytes", len(m.mustRead(m.sPath)))) {
		t.Fatalf("replica status with the primary lost:\n%s", out)
	}
	if _, err := os.Stat(m.pPath); err == nil {
		t.Fatal("replica status recreated the lost primary")
	}
	push()
	m.equal()
	if got := len(volSets(t, m.base)); got != 2 {
		t.Fatalf("%d sets after losing the primary and pushing again, want 2", got)
	}
}

func (m *mirrorPair) mustRead(path string) []byte {
	m.t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		m.t.Fatal(err)
	}
	return b
}
