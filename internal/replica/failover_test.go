// Package replica holds only tests: the standby catalog's failover
// scenarios, run over two journal files the way `backupctl serve
// -standby` opens them, a catalog.Mirror over two catalog.FileStores.
// Every open of the pair is a restart of the serve side: it reads both
// files, keeps the one with the longer valid journal and repairs the
// other. The pair's unit tests are in internal/catalog/mirror_test.go.
package replica

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
)

// pair is the two journal files of a mirrored catalog.
type pair struct{ primary, standby string }

func newPair(t *testing.T) pair {
	t.Helper()
	dir := t.TempDir()
	return pair{filepath.Join(dir, "recv.dump.catalog"), filepath.Join(dir, "sb.catalog")}
}

// mirror opens both files and the Mirror over them; the files are
// closed when the test ends.
func (p pair) mirror(t *testing.T) catalog.Store {
	t.Helper()
	var stores [2]catalog.Store
	for i, path := range []string{p.primary, p.standby} {
		fs, err := catalog.OpenFileStore(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fs.Close() })
		stores[i] = fs
	}
	m, err := catalog.Mirror(stores[0], stores[1])
	if err != nil {
		t.Fatalf("Mirror: %v", err)
	}
	return m
}

// open restarts the catalog over the pair. It fails the test unless
// the files then hold the same bytes and nothing torn is left in them.
func (p pair) open(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat, err := catalog.Open(p.mirror(t))
	if err != nil {
		t.Fatalf("Open over the pair: %v", err)
	}
	if cat.TornBytes != 0 {
		t.Fatalf("open over the pair dropped %d torn bytes", cat.TornBytes)
	}
	p.converged(t)
	return cat
}

// converged fails unless both files hold the same bytes; it returns
// them.
func (p pair) converged(t *testing.T) []byte {
	t.Helper()
	a, err := os.ReadFile(p.primary)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(p.standby)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("journal files differ: primary %d bytes, standby %d bytes", len(a), len(b))
	}
	return a
}

func appendSet(t *testing.T, cat *catalog.Catalog, date int64) {
	t.Helper()
	if _, err := cat.AppendDumpSet(catalog.DumpSet{
		Engine: catalog.Logical, FSID: "vol0", Snap: fmt.Sprintf("s%d", date),
		Date: date, Bytes: 1 << 20, Units: 4,
		Media: []catalog.MediaRef{{Volume: "t0", Start: 0}},
	}); err != nil {
		t.Fatalf("AppendDumpSet: %v", err)
	}
}

// journal records n dump sets and returns the journal bytes and, for
// each set, the offset at which its frame ends.
func journal(t *testing.T, n int) (buf []byte, ends []int) {
	t.Helper()
	store := &catalog.MemStore{}
	cat, err := catalog.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		appendSet(t, cat, int64(100*i))
		ends = append(ends, len(store.Buf))
	}
	return store.Buf, ends
}

// replayed returns how many dump sets the valid prefix of buf replays.
func replayed(buf []byte) (int, error) {
	n, _ := catalog.ScanFrames(buf, nil)
	cat, err := catalog.Open(&catalog.MemStore{Buf: buf[:n]})
	if err != nil {
		return 0, fmt.Errorf("valid prefix does not replay: %w", err)
	}
	return len(cat.Sets()), nil
}

// TestFailoverKeepsAckedRecords loses the primary file, and later the
// standby, between restarts: each time the next open replays every
// acknowledged set from the file that survived, rebuilds the lost one
// with the same bytes, and the history keeps growing in both.
func TestFailoverKeepsAckedRecords(t *testing.T) {
	p := newPair(t)
	cat := p.open(t)
	appendSet(t, cat, 100)
	appendSet(t, cat, 200)
	for i, victim := range []string{p.primary, p.standby} {
		acked := p.converged(t)
		if err := os.Remove(victim); err != nil {
			t.Fatal(err)
		}
		cat = p.open(t)
		if got, want := len(cat.Sets()), 2+i; got != want {
			t.Fatalf("%s lost: %d sets replay, want %d", filepath.Base(victim), got, want)
		}
		if got := p.converged(t); !bytes.Equal(got, acked) {
			t.Fatalf("%s lost: rebuilt to %d bytes, want the %d acknowledged", filepath.Base(victim), len(got), len(acked))
		}
		appendSet(t, cat, int64(300+100*i))
	}
	if got := len(p.open(t).Sets()); got != 4 {
		t.Fatalf("after both failovers: %d sets, want 4", got)
	}
}

// TestPartitionedPrimaryFailover brings the primary file back stale, as
// a journal on a mount that returns from a partition holding what it
// held when it was cut off, while the standby kept every set
// acknowledged meanwhile. The restart keeps the standby's longer
// journal and extends the stale primary from it: no acknowledged set
// is lost and the files converge.
func TestPartitionedPrimaryFailover(t *testing.T) {
	p := newPair(t)
	appendSet(t, p.open(t), 100)
	stale, err := os.ReadFile(p.primary)
	if err != nil {
		t.Fatal(err)
	}
	cat := p.open(t)
	appendSet(t, cat, 200)
	appendSet(t, cat, 300)
	acked := p.converged(t)

	if err := os.WriteFile(p.primary, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	cat = p.open(t)
	if got := p.converged(t); !bytes.Equal(got, acked) {
		t.Fatalf("after rejoin: %d bytes, want the %d acknowledged", len(got), len(acked))
	}
	if got := len(cat.Sets()); got != 3 {
		t.Fatalf("after rejoin: %d sets, want 3", got)
	}
	appendSet(t, cat, 400)
	p.converged(t)
}

// TestPromotionPrefersLargestJournal checks the zero-loss rule directly:
// of two copies the one with more valid journal bytes leads, in either
// position, because the shorter may be missing acknowledged records.
// Torn trailing bytes count for nothing, and with nothing to choose
// between the copies the first leads.
func TestPromotionPrefersLargestJournal(t *testing.T) {
	full, ends := journal(t, 3)
	short := full[:ends[1]]
	junk := []byte{0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0, 1}
	cases := []struct {
		name           string
		a, b           []byte
		lead           int
		validA, validB int
	}{
		{"longer first", full, short, 0, len(full), len(short)},
		{"longer second", short, full, 1, len(short), len(full)},
		{"equal", full, full, 0, len(full), len(full)},
		{"both empty", nil, nil, 0, 0, 0},
		{"torn tail ties", append(bytes.Clone(full), junk...), full, 0, len(full), len(full)},
		{"torn tail does not lead", append(bytes.Clone(short), junk...), full, 1, len(short), len(full)},
		{"longer raw, shorter valid", append(bytes.Clone(short), bytes.Repeat(junk, 20)...), full, 1, len(short), len(full)},
	}
	for _, tc := range cases {
		lead, valid := catalog.MirrorLead(tc.a, tc.b)
		if lead != tc.lead || valid != [2]int64{int64(tc.validA), int64(tc.validB)} {
			t.Errorf("%s: lead %d valid %v, want lead %d valid [%d %d]", tc.name, lead, valid, tc.lead, tc.validA, tc.validB)
		}
	}
}

// TestColdStartElectsLargestValidJournal: both files come back from a
// crash unequal. The one whose journal is longest after the torn-tail
// rule is kept and the other is rewritten or extended from it before
// the open returns; with nothing to choose between them both stay as
// they are.
func TestColdStartElectsLargestValidJournal(t *testing.T) {
	full, ends := journal(t, 3)
	flipped := bytes.Clone(full)
	flipped[20] ^= 0xFF // inside the first frame: nothing of it is valid
	torn := full[:len(full)-7]
	cases := []struct {
		name             string
		primary, standby []byte
		want             []byte
	}{
		{"flipped primary", flipped, full, full},
		{"torn primary", torn, full, full},
		{"torn standby", full, torn, full},
		{"flipped primary, torn standby", flipped, torn, full[:ends[1]]},
		{"torn primary, flipped standby", torn, flipped, full[:ends[1]]},
		{"both whole", full, full, full},
		{"both empty", nil, nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newPair(t)
			if err := os.WriteFile(p.primary, tc.primary, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p.standby, tc.standby, 0o644); err != nil {
				t.Fatal(err)
			}
			cat := p.open(t)
			if got := p.converged(t); !bytes.Equal(got, tc.want) {
				t.Fatalf("after cold start: %d bytes, want %d", len(got), len(tc.want))
			}
			want, err := replayed(tc.want)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(cat.Sets()); got != want {
				t.Fatalf("after cold start: %d sets, want %d", got, want)
			}
		})
	}
}

// TestConcurrentAppends drives one pair of files from many goroutines,
// each through its own catalog handle — the -race stage's subject. The
// handle is a single-writer replay cache; the mirror underneath is the
// concurrency-safe layer they share. Every append lands in both files
// in the same order.
func TestConcurrentAppends(t *testing.T) {
	p := newPair(t)
	m := p.mirror(t)
	const workers, per = 8, 10
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cat, err := catalog.Open(m)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < per; i++ {
				if err := cat.AppendMediaEvent(catalog.MediaEvent{
					Kind: catalog.MediaActivate, Volume: fmt.Sprintf("t%d-%d", w, i),
					Pool: "main", Time: int64(w*1000 + i),
				}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent append: %v", err)
	}
	p.converged(t)
	if got := len(p.open(t).MediaEvents()); got != workers*per {
		t.Fatalf("replayed %d media events, want %d", got, workers*per)
	}
}

// TestRestartRacesAppends reads both files in a loop, as a restart's
// open (or `replica status` on a live serve) reads them, while dump
// sets are appended. A read may catch a frame half written, but the
// valid prefix of either file must always hold every set acknowledged
// before the read began. Then the pair restarts: every set replays and
// the files converge.
func TestRestartRacesAppends(t *testing.T) {
	p := newPair(t)
	cat := p.open(t)
	const sets = 200
	var acked atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := int64(1); i <= sets; i++ {
			if _, err := cat.AppendDumpSet(catalog.DumpSet{Engine: catalog.Logical, FSID: "vol0", Date: i,
				Media: []catalog.MediaRef{{Volume: "t0"}}}); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
			acked.Store(i)
		}
	}()
	// The reader only reports: a Fatal here would close the files under
	// the appender.
	reads := 0
read:
	for ; ; reads++ {
		select {
		case <-done:
			break read
		default:
		}
		before := int(acked.Load())
		for _, path := range []string{p.primary, p.standby} {
			buf, err := os.ReadFile(path)
			if err == nil {
				var got int
				if got, err = replayed(buf); err == nil && got < before {
					err = fmt.Errorf("replays %d of %d acknowledged sets", got, before)
				}
			}
			if err != nil {
				t.Errorf("read %d of %s: %v", reads, filepath.Base(path), err)
				break read
			}
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if reads == 0 {
		t.Log("the appends finished before the first read")
	}
	appendSet(t, p.open(t), sets+1)
	p.converged(t)
	if got := len(p.open(t).Sets()); got != sets+1 {
		t.Fatalf("replayed %d sets, want %d", got, sets+1)
	}
}
