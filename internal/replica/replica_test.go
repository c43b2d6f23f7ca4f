package replica

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
)

func newTestCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(Config{Members: []string{"n0", "n1", "n2"}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
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

func assertConverged(t *testing.T, c *Cluster) {
	t.Helper()
	ref := c.Journal("n0")
	for _, name := range []string{"n1", "n2"} {
		if got := c.Journal(name); !bytes.Equal(got, ref) {
			t.Fatalf("node %s journal diverged: %d vs %d bytes", name, len(got), len(ref))
		}
	}
}

// TestReplicatedCatalog opens a Catalog directly over the Cluster and
// checks that every append lands byte-identically on all replicas and
// that a fresh handle replays the same state.
func TestReplicatedCatalog(t *testing.T) {
	c := newTestCluster(t)
	cat, err := catalog.Open(c)
	if err != nil {
		t.Fatalf("Open over cluster: %v", err)
	}
	for i := int64(1); i <= 5; i++ {
		appendSet(t, cat, 100*i)
	}
	if err := cat.AppendSessionCheckpoint(catalog.SessionCheckpoint{Session: 7, Stream: 0, Seq: 42, Time: 600}); err != nil {
		t.Fatalf("AppendSessionCheckpoint: %v", err)
	}
	assertConverged(t, c)
	if c.AckedSize() != int64(len(c.Journal("n0"))) {
		t.Fatalf("acked size %d != primary size %d", c.AckedSize(), int64(len(c.Journal("n0"))))
	}

	cat2, err := catalog.Open(c)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(cat2.Sets()) != 5 {
		t.Fatalf("replay: %d sets, want 5", len(cat2.Sets()))
	}
	if seq, ok := cat2.SessionProgress(7, 0); !ok || seq != 42 {
		t.Fatalf("SessionProgress = %d,%v want 42,true", seq, ok)
	}
}

// TestFailoverKeepsAckedRecords kills the primary and checks the
// acknowledged history survives the promotion and keeps growing.
func TestFailoverKeepsAckedRecords(t *testing.T) {
	c := newTestCluster(t)
	cat, err := catalog.Open(c)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendSet(t, cat, 100)
	appendSet(t, cat, 200)
	acked := c.AckedSize()

	c.Kill("n0")
	appendSet(t, cat, 300) // must stall, fail over, then succeed

	view := c.View()
	if view.Primary == "n0" {
		t.Fatalf("primary still n0 after kill")
	}
	if c.ViewChanges() == 0 {
		t.Fatalf("no view change recorded")
	}
	if c.AckedSize() <= acked {
		t.Fatalf("acked size did not grow past %d", acked)
	}

	// The dead node restarts, catches up, and converges.
	if err := c.Restart("n0"); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	appendSet(t, cat, 400)
	assertConverged(t, c)

	cat2, err := catalog.Open(c)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(cat2.Sets()) != 4 {
		t.Fatalf("after failover: %d sets, want 4", len(cat2.Sets()))
	}
}

// TestPartitionedPrimaryFailover isolates (rather than kills) the
// primary: its in-memory state survives, but it stops pinging, gets
// declared dead, and on rejoin converges to the new primary's journal.
func TestPartitionedPrimaryFailover(t *testing.T) {
	c := newTestCluster(t)
	cat, err := catalog.Open(c)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendSet(t, cat, 100)
	c.Isolate("n0")
	appendSet(t, cat, 200)
	if v := c.View(); v.Primary == "n0" {
		t.Fatalf("primary still n0 while partitioned")
	}
	c.Rejoin("n0")
	appendSet(t, cat, 300)
	assertConverged(t, c)
}

// TestStrandedTailTruncated manufactures the nightmare window: the
// primary durably frames a record, crashes before any backup sees it,
// and the client never acknowledges. The record must NOT be in the
// acknowledged history, and when the old primary rejoins, its
// stranded tail must be truncated so all journals converge.
func TestStrandedTailTruncated(t *testing.T) {
	c := newTestCluster(t)
	cat, err := catalog.Open(c)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendSet(t, cat, 100)
	ackedBefore := c.AckedSize()

	boom := errors.New("primary crashed mid-append")
	c.TestHookAfterPrimary = func() error {
		c.Kill("n0")
		return boom
	}
	_, err = cat.AppendDumpSet(catalog.DumpSet{
		Engine: catalog.Image, FSID: "vol0", Snap: "doomed", Date: 150,
		Media: []catalog.MediaRef{{Volume: "t1"}},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("append error = %v, want the injected crash", err)
	}
	c.TestHookAfterPrimary = nil

	if c.AckedSize() != ackedBefore {
		t.Fatalf("unacknowledged append moved the durability frontier")
	}
	if int64(len(c.Journal("n0"))) <= ackedBefore {
		t.Fatalf("test setup: no stranded tail on the dead primary")
	}

	// The catalog handle is poisoned by the failed append (the caller
	// must reopen, same as after any journal write error) — but the
	// cluster itself recovers: fail over, keep appending.
	cat2, err := catalog.Open(c)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	appendSet(t, cat2, 200)
	if len(cat2.Sets()) != 2 {
		t.Fatalf("%d sets, want 2 (the doomed one must be absent)", len(cat2.Sets()))
	}
	for _, s := range cat2.Sets() {
		if s.Snap == "doomed" {
			t.Fatalf("unacknowledged dump set resurfaced")
		}
	}

	// Old primary returns: its stranded tail is truncated on catch-up.
	if err := c.Restart("n0"); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	appendSet(t, cat2, 300)
	assertConverged(t, c)
}

// TestPromotionPrefersLargestJournal checks the zero-loss linchpin
// directly: when the primary dies, the view service must promote the
// live backup with the most journal bytes, because a smaller backup
// may be missing acknowledged records.
func TestPromotionPrefersLargestJournal(t *testing.T) {
	start := time.Unix(0, 0)
	vs := newViewService([]string{"a", "b", "c"}, 3*time.Second, start)
	now := start.Add(time.Second)
	vs.Ping("a", 100, now)
	vs.Ping("b", 60, now)
	vs.Ping("c", 90, now)
	// a dies; b pings with less data than c.
	now = now.Add(10 * time.Second)
	vs.Ping("b", 60, now)
	vs.Ping("c", 90, now)
	v := vs.Tick(now)
	if v.Primary != "c" {
		t.Fatalf("promoted %q, want c (largest journal)", v.Primary)
	}
	if v.Num != 2 {
		t.Fatalf("view num = %d, want 2", v.Num)
	}
	// No live backup at all: the view must not regress.
	now = now.Add(10 * time.Second)
	vs.Ping("c", 90, now)
	if v := vs.Tick(now); v.Primary != "c" || v.Num != 2 {
		t.Fatalf("view churned without cause: %+v", v)
	}
}

// TestConcurrentAppends drives the cluster from many goroutines —
// the -race stage's main subject. Every append must get a distinct
// offset and all replicas must converge byte-identically.
func TestConcurrentAppends(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := New(Config{Members: []string{"n0", "n1", "n2"}, Registry: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const workers, per = 8, 10
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One catalog handle per writer: the handle is a
			// single-writer replay cache, the cluster underneath is the
			// concurrency-safe layer every handle shares.
			cat, err := catalog.Open(c)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < per; i++ {
				err := cat.AppendMediaEvent(catalog.MediaEvent{
					Kind: catalog.MediaActivate, Volume: fmt.Sprintf("t%d-%d", w, i),
					Pool: "main", Time: int64(w*1000 + i),
				})
				if err != nil {
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
	assertConverged(t, c)

	cat2, err := catalog.Open(c)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := len(cat2.MediaEvents()); got != workers*per {
		t.Fatalf("replayed %d media events, want %d", got, workers*per)
	}
	if v, ok := reg.Value("replica_appends_total", nil); !ok || v < workers*per {
		t.Fatalf("replica_appends_total = %v,%v", v, ok)
	}
}

// TestTornNodeJournalEveryOffset is the PR 4 every-byte-offset torn
// journal property extended to the replica log: for EVERY possible
// truncation point of one node's durable journal (a crash can tear at
// any byte), restarting the node must recover the longest valid frame
// prefix, and catch-up must then restore the exact acknowledged
// journal. A flipped byte anywhere must likewise end in convergence.
func TestTornNodeJournalEveryOffset(t *testing.T) {
	stores := map[string]catalog.Store{
		"n0": &catalog.MemStore{}, "n1": &catalog.MemStore{}, "n2": &catalog.MemStore{},
	}
	c, err := New(Config{Members: []string{"n0", "n1", "n2"}, Stores: stores})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cat, err := catalog.Open(c)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := int64(1); i <= 3; i++ {
		appendSet(t, cat, 100*i)
	}
	full := c.Journal("n2")
	if len(full) == 0 {
		t.Fatalf("empty journal")
	}

	victim := stores["n2"].(*catalog.MemStore)
	for off := 0; off <= len(full); off++ {
		c.Kill("n2")
		victim.Buf = append(victim.Buf[:0], full[:off]...)
		if err := c.Restart("n2"); err != nil {
			t.Fatalf("off %d: restart: %v", off, err)
		}
		if got := c.Journal("n2"); !bytes.Equal(got, full) {
			t.Fatalf("off %d: catch-up got %d bytes, want %d", off, len(got), len(full))
		}
	}
	for off := 0; off < len(full); off++ {
		c.Kill("n2")
		victim.Buf = append(victim.Buf[:0], full...)
		victim.Buf[off] ^= 0x5a
		if err := c.Restart("n2"); err != nil {
			t.Fatalf("flip %d: restart: %v", off, err)
		}
		if got := c.Journal("n2"); !bytes.Equal(got, full) {
			t.Fatalf("flip %d: catch-up got %d bytes, want %d", off, len(got), len(full))
		}
	}
}

// refusingStore is a durable store whose media stops taking writes.
type refusingStore struct {
	catalog.MemStore
	refuse bool
}

func (s *refusingStore) Append(p []byte) error {
	if s.refuse {
		return errors.New("test: no space left on device")
	}
	return s.MemStore.Append(p)
}

// TestMirroredPairNeverAcksOnOneCopy: two members are a mirrored pair —
// quorum is both copies — so an append that cannot land on both fails,
// the durability frontier stays put, and once the missing copy is back
// it is caught up and the retried append lands on both.
func TestMirroredPairNeverAcksOnOneCopy(t *testing.T) {
	set := catalog.DumpSet{Engine: catalog.Logical, FSID: "vol0", Snap: "retry", Date: 200,
		Media: []catalog.MediaRef{{Volume: "t0"}}}
	converged := func(c *Cluster) {
		t.Helper()
		if a, b := c.Journal("a"), c.Journal("b"); !bytes.Equal(a, b) {
			t.Fatalf("copies differ: a %d bytes, b %d bytes", len(a), len(b))
		}
	}

	// The backup's store refuses the write.
	bad := &refusingStore{}
	c, err := New(Config{Members: []string{"a", "b"}, Stores: map[string]catalog.Store{"b": bad}})
	if err != nil {
		t.Fatalf("New with two members: %v", err)
	}
	cat, err := catalog.Open(c)
	if err != nil {
		t.Fatal(err)
	}
	appendSet(t, cat, 100)
	converged(c)
	acked := c.AckedSize()
	bad.refuse = true
	if _, err := cat.AppendDumpSet(set); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("append with one copy refusing = %v, want ErrNoQuorum", err)
	}
	if c.AckedSize() != acked {
		t.Fatalf("acked size moved %d -> %d on a one-copy append", acked, c.AckedSize())
	}

	// Either member killed: the append fails; after the restart the
	// copy is caught up and the retry succeeds on both.
	for _, victim := range []string{"a", "b"} {
		c, err := New(Config{Members: []string{"a", "b"}})
		if err != nil {
			t.Fatal(err)
		}
		cat, err := catalog.Open(c)
		if err != nil {
			t.Fatal(err)
		}
		appendSet(t, cat, 100)
		acked := c.AckedSize()
		c.Kill(victim)
		if _, err := cat.AppendDumpSet(set); !errors.Is(err, ErrNoQuorum) {
			t.Fatalf("%s down: append = %v, want ErrNoQuorum", victim, err)
		}
		if c.AckedSize() != acked {
			t.Fatalf("%s down: acked size moved %d -> %d", victim, acked, c.AckedSize())
		}
		if err := c.Restart(victim); err != nil {
			t.Fatal(err)
		}
		converged(c)
		if cat, err = catalog.Open(c); err != nil { // the failed append poisoned the handle
			t.Fatal(err)
		}
		if _, err := cat.AppendDumpSet(set); err != nil {
			t.Fatalf("%s restarted: retried append: %v", victim, err)
		}
		converged(c)
		if c.AckedSize() <= acked || c.AckedSize() != int64(len(c.Journal("a"))) {
			t.Fatalf("%s restarted: acked %d, copies hold %d", victim, c.AckedSize(), int64(len(c.Journal("a"))))
		}
	}
}

// TestColdStartElectsLargestValidJournal: durable stores come back from
// a crash unequal. The member whose journal is longest after the
// torn-tail rule leads the first view and the others are reinstalled
// from it before New returns; with nothing to choose between them the
// first member leads and no view change is counted.
func TestColdStartElectsLargestValidJournal(t *testing.T) {
	seed := newTestCluster(t)
	cat, err := catalog.Open(seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		appendSet(t, cat, 100*i)
	}
	full := seed.Journal("n0")

	flipped := append([]byte(nil), full...)
	flipped[20] ^= 0xFF // inside the first frame: nothing of it is valid
	stores := map[string]catalog.Store{
		"n0": &catalog.MemStore{Buf: flipped},
		"n1": &catalog.MemStore{Buf: append([]byte(nil), full[:len(full)-7]...)}, // torn tail
		"n2": &catalog.MemStore{Buf: append([]byte(nil), full...)},
	}
	c, err := New(Config{Members: []string{"n0", "n1", "n2"}, Stores: stores})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if v := c.View(); v.Num != 1 || v.Primary != "n2" || len(v.Backups) != 2 {
		t.Fatalf("first view %+v, want n2 leading view 1", v)
	}
	if c.ViewChanges() != 0 {
		t.Fatalf("cold start counted %d view changes", c.ViewChanges())
	}
	assertConverged(t, c)
	if got := c.Journal("n0"); !bytes.Equal(got, full) || c.AckedSize() != int64(len(full)) {
		t.Fatalf("after cold start: %d bytes, acked %d, want %d", len(got), c.AckedSize(), len(full))
	}
	for name, s := range stores {
		if !bytes.Equal(s.(*catalog.MemStore).Buf, full) {
			t.Fatalf("%s's durable store was not reinstalled", name)
		}
	}
	if v := newTestCluster(t).View(); v.Primary != "n0" || v.Backups[0] != "n1" || v.Backups[1] != "n2" {
		t.Fatalf("empty journals: first view %+v, want member order", v)
	}
}
