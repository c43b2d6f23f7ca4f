package catalog

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// pairStore is one copy of a mirrored pair in the tests: an in-memory
// journal that can be told to refuse appends, and that counts the
// repair operations Mirror makes on it.
type pairStore struct {
	MemStore
	refuse    bool
	truncates int
	appended  int // bytes appended
}

var errRefused = errors.New("test: no space left on device")

func (s *pairStore) Append(p []byte) error {
	if s.refuse {
		return errRefused
	}
	s.appended += len(p)
	return s.MemStore.Append(p)
}

func (s *pairStore) Truncate(n int64) error {
	s.truncates++
	return s.MemStore.Truncate(n)
}

// openPair opens a catalog over Mirror(a, b), failing the test when
// either does not open or the copies differ afterwards.
func openPair(t *testing.T, a, b Store) *Catalog {
	t.Helper()
	m, err := Mirror(a, b)
	if err != nil {
		t.Fatalf("Mirror: %v", err)
	}
	c, err := Open(m)
	if err != nil {
		t.Fatalf("Open over the mirror: %v", err)
	}
	if c.TornBytes != 0 {
		t.Fatalf("open over the mirror dropped %d torn bytes", c.TornBytes)
	}
	samePair(t, a, b)
	return c
}

// samePair fails unless both copies hold the same bytes; it returns
// them.
func samePair(t *testing.T, a, b Store) []byte {
	t.Helper()
	ab, _ := a.ReadAll()
	bb, _ := b.ReadAll()
	if !bytes.Equal(ab, bb) {
		t.Fatalf("copies differ: a %d bytes, b %d bytes", len(ab), len(bb))
	}
	return ab
}

func appendDated(t *testing.T, c *Catalog, date int64) {
	t.Helper()
	if _, err := c.AppendDumpSet(sampleSet(Logical, "vol0", 0, date, 0, 0, 0, MediaRef{Volume: "t0"})); err != nil {
		t.Fatalf("AppendDumpSet: %v", err)
	}
}

// TestMirrorCatalogReplays opens a Catalog over a Mirror: every append
// lands byte-identically in both copies, and a fresh open of the pair
// replays the same state.
func TestMirrorCatalogReplays(t *testing.T) {
	a, b := &MemStore{}, &MemStore{}
	c := openPair(t, a, b)
	for i := int64(1); i <= 5; i++ {
		appendDated(t, c, 100*i)
	}
	if err := c.Expire(3, 600); err != nil {
		t.Fatal(err)
	}
	samePair(t, a, b)
	c2 := openPair(t, a, b)
	if len(c2.Sets()) != 5 {
		t.Fatalf("replay: %d sets, want 5", len(c2.Sets()))
	}
	if at, ok := c2.Expired(3); !ok || at != 600 {
		t.Fatalf("Expired(3) = %d,%v want 600,true", at, ok)
	}
}

// TestMirrorNeverAcksOnOneCopy: an append that cannot land in both
// copies fails, whichever copy refuses it; the pair then refuses every
// write until it is reopened, and the reopened pair takes the retried
// append in both copies.
func TestMirrorNeverAcksOnOneCopy(t *testing.T) {
	set := sampleSet(Logical, "vol0", 1, 200, 100, 0, 0, MediaRef{Volume: "t1"})
	for _, victim := range []string{"a", "b"} {
		a, b := &pairStore{}, &pairStore{}
		bad := map[string]*pairStore{"a": a, "b": b}[victim]
		c := openPair(t, a, b)
		appendDated(t, c, 100)
		acked := samePair(t, a, b)

		bad.refuse = true
		if _, err := c.AppendDumpSet(set); !errors.Is(err, errRefused) {
			t.Fatalf("%s refusing: append = %v, want the refusal", victim, err)
		}
		bad.refuse = false
		if err := c.AppendMediaEvent(MediaEvent{Kind: MediaActivate, Volume: "t1", Pool: "p"}); err == nil {
			t.Fatalf("%s refused once: the pair took a later append without a reopen", victim)
		}
		if victim == "a" && !bytes.Equal(b.Buf, acked) {
			t.Fatalf("a refused, yet b was written")
		}

		c = openPair(t, a, b)
		if _, err := c.AppendDumpSet(set); err != nil {
			t.Fatalf("%s back: retried append: %v", victim, err)
		}
		if grown := samePair(t, a, b); len(grown) <= len(acked) || !bytes.Equal(grown[:len(acked)], acked) {
			t.Fatalf("%s back: copies hold %d bytes, want the %d acknowledged plus the retry", victim, len(grown), len(acked))
		}
	}
}

// journalOf records n dump sets of volume fsid and returns the journal
// bytes and where its last frame begins. Journals of equal-length
// fsids are equally long, and journalOf(fsid, k) is a prefix of
// journalOf(fsid, n) for k < n.
func journalOf(t testing.TB, fsid string, n int) (buf []byte, last int) {
	t.Helper()
	store := &MemStore{}
	c, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		last = len(store.Buf)
		if _, err := c.AppendDumpSet(sampleSet(Logical, fsid, 0, int64(100*i), 0, 0, 0, MediaRef{Volume: "t0"})); err != nil {
			t.Fatal(err)
		}
	}
	return store.Buf, last
}

// TestMirrorKeepsLongerValidJournal: copies come back from a crash
// unequal, and opening keeps the one with the longer valid journal —
// however the other went wrong, and whichever of the two it is — then
// repairs the other from it. On a tie a is kept.
func TestMirrorKeepsLongerValidJournal(t *testing.T) {
	full, last := journalOf(t, "vol0", 4)
	other, _ := journalOf(t, "vol1", 4) // as long, and disagreeing
	flipped := bytes.Clone(full)
	flipped[20] ^= 0xFF // inside the first frame: nothing of it is valid
	mid := bytes.Clone(full)
	mid[last+frameHdr] ^= 0xFF // the last frame's payload: a CRC failure

	cases := []struct {
		name string
		a, b []byte
		want []byte
	}{
		{"both empty", nil, nil, nil},
		{"equal", full, full, full},
		{"a flipped in the first frame", flipped, full, full},
		{"b flipped in the first frame", full, flipped, full},
		{"a torn tail", full[:len(full)-7], full, full},
		{"b torn tail", full, full[:len(full)-7], full},
		{"a flipped in its last frame", mid, full, full},
		{"a lost", nil, full, full},
		{"b lost", full, nil, full},
		{"both torn alike", full[:len(full)-3], full[:len(full)-3], full[:last]},
		{"a tie between disagreeing copies keeps a", full, other, full},
		{"the same tie the other way round keeps a", other, full, other},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := &MemStore{Buf: bytes.Clone(tc.a)}
			b := &MemStore{Buf: bytes.Clone(tc.b)}
			openPair(t, a, b)
			if !bytes.Equal(a.Buf, tc.want) {
				t.Fatalf("copies hold %d bytes, want %d", len(a.Buf), len(tc.want))
			}
		})
	}
}

// TestMirrorRepairRules: the copy that is not kept is extended when its
// valid journal is a prefix of the kept one, and rewritten whole when
// it disagrees; the kept copy loses only a torn tail.
func TestMirrorRepairRules(t *testing.T) {
	full, last := journalOf(t, "vol0", 4)
	diverged, _ := journalOf(t, "vol1", 3)
	suffix := len(full) - last
	cases := []struct {
		name                       string
		a, b                       []byte
		aTrunc, aApp, bTrunc, bApp int
	}{
		{name: "in sync: nothing written", a: full, b: full},
		{name: "b lags on a frame boundary: the suffix is appended", a: full, b: full[:last], bApp: suffix},
		{name: "b torn mid-frame: the tail is cut, the suffix appended", a: full, b: full[:last+5], bTrunc: 1, bApp: suffix},
		{name: "b diverged: rewritten whole", a: full, b: diverged, bTrunc: 1, bApp: len(full)},
		{name: "a lags: extended from b", a: full[:last], b: full, aApp: suffix},
		{name: "both torn alike: only the tails are cut", a: full[:last+5], b: full[:last+5], aTrunc: 1, bTrunc: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := &pairStore{MemStore: MemStore{Buf: bytes.Clone(tc.a)}}
			b := &pairStore{MemStore: MemStore{Buf: bytes.Clone(tc.b)}}
			openPair(t, a, b)
			got := [4]int{a.truncates, a.appended, b.truncates, b.appended}
			if want := [4]int{tc.aTrunc, tc.aApp, tc.bTrunc, tc.bApp}; got != want {
				t.Fatalf("a truncated %d times and took %d bytes, b %d and %d; want %v", got[0], got[1], got[2], got[3], want)
			}
		})
	}
}

// TestMirrorTornAppendEveryOffset: a crash can tear the append in
// flight at any byte of either copy — in a before b was written, or in
// b after a took the whole frame — and it can leave either copy cut or
// flipped anywhere. Reopening must keep every acknowledged set and leave
// both copies equal.
func TestMirrorTornAppendEveryOffset(t *testing.T) {
	full, last := buildJournal(t, 4)
	acked, inFlight := full[:last], full[last:]
	sets := len(openAt(t, acked).Sets())
	check := func(t *testing.T, what string, a, b []byte, want int) {
		t.Helper()
		sa, sb := &MemStore{Buf: bytes.Clone(a)}, &MemStore{Buf: bytes.Clone(b)}
		c := openPair(t, sa, sb)
		if got := len(c.Sets()); got < want {
			t.Fatalf("%s: %d sets replay, want at least the %d acknowledged", what, got, want)
		}
		if !bytes.HasPrefix(sa.Buf, acked[:min(len(acked), len(sa.Buf))]) {
			t.Fatalf("%s: the kept journal is not the acknowledged one", what)
		}
	}
	for k := 0; k < len(inFlight); k++ {
		torn := append(bytes.Clone(acked), inFlight[:k]...)
		check(t, fmt.Sprintf("a torn at %d", k), torn, acked, sets)
		check(t, fmt.Sprintf("b torn at %d", k), full, torn, sets)
	}
	// Every cut and every flipped byte of one copy while the other holds
	// the whole journal: nothing of it is lost.
	all := len(openAt(t, full).Sets())
	for off := 0; off <= len(full); off++ {
		check(t, fmt.Sprintf("a cut at %d", off), full[:off], full, all)
		check(t, fmt.Sprintf("b cut at %d", off), full, full[:off], all)
		if off == len(full) {
			break
		}
		flip := bytes.Clone(full)
		flip[off] ^= 0x5a
		check(t, fmt.Sprintf("a flipped at %d", off), flip, full, all)
		check(t, fmt.Sprintf("b flipped at %d", off), full, flip, all)
	}
}

// TestMirrorSurvivesLosingEitherCopy: either copy lost between opens
// costs nothing — the next open replays every set from the survivor,
// rebuilds the lost copy, and later appends land in both.
func TestMirrorSurvivesLosingEitherCopy(t *testing.T) {
	for _, victim := range []int{0, 1} {
		copies := [2]*MemStore{{}, {}}
		c := openPair(t, copies[0], copies[1])
		for i := int64(1); i <= 3; i++ {
			appendDated(t, c, 100*i)
		}
		copies[victim].Buf = nil
		c = openPair(t, copies[0], copies[1])
		if got := len(c.Sets()); got != 3 {
			t.Fatalf("copy %d lost: %d sets replay, want 3", victim, got)
		}
		appendDated(t, c, 400)
		samePair(t, copies[0], copies[1])
		if got := len(openPair(t, copies[0], copies[1]).Sets()); got != 4 {
			t.Fatalf("copy %d lost: %d sets after the next append, want 4", victim, got)
		}
	}
}

// TestMirrorUnackedAppendConverges: an append a took and b refused was
// never acknowledged. The next open keeps it (a's journal is the longer
// one) and copies it to b, so the copies converge and later appends
// land after it in both.
func TestMirrorUnackedAppendConverges(t *testing.T) {
	a, b := &pairStore{}, &pairStore{}
	c := openPair(t, a, b)
	appendDated(t, c, 100)
	b.refuse = true
	if _, err := c.AppendDumpSet(sampleSet(Image, "vol0", 0, 0, 0, 1, 0, MediaRef{Volume: "t1"})); err == nil {
		t.Fatal("append with b refusing was acknowledged")
	}
	b.refuse = false
	c = openPair(t, a, b)
	if got := len(c.Sets()); got != 2 {
		t.Fatalf("%d sets after reopen, want 2 (the unacknowledged one kept)", got)
	}
	appendDated(t, c, 300)
	samePair(t, a, b)
}

// TestMirrorConcurrentAppends drives one pair from many goroutines,
// each through its own catalog handle — the -race stage's subject.
// Every append lands in both copies in the same order.
func TestMirrorConcurrentAppends(t *testing.T) {
	a, b := &MemStore{}, &MemStore{}
	m, err := Mirror(a, b)
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Open(m)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < per; i++ {
				if err := c.AppendMediaEvent(MediaEvent{
					Kind: MediaActivate, Volume: fmt.Sprintf("t%d-%d", w, i), Pool: "main", Time: int64(w*1000 + i),
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
	if got := len(openPair(t, a, b).MediaEvents()); got != workers*per {
		t.Fatalf("replayed %d media events, want %d", got, workers*per)
	}
}

// FuzzMirror opens arbitrary bytes as a mirrored pair. Whatever the two
// copies hold, both must afterwards hold the same bytes: the valid
// journal prefix of the copy MirrorLead keeps, with nothing torn left
// for Open to drop.
func FuzzMirror(f *testing.F) {
	store := &MemStore{}
	c, _ := Open(store)
	for i := int64(1); i <= 3; i++ {
		_, _ = c.AppendDumpSet(sampleSet(Logical, "vol0", int32(i-1), 100*i, 0, 0, 0, MediaRef{Volume: "t0"}))
	}
	whole := store.Buf
	flipped := bytes.Clone(whole)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(whole, whole)
	f.Add(whole, whole[:len(whole)-5])
	f.Add(whole[:len(whole)/3], whole)
	f.Add(flipped, whole)
	f.Add(whole, flipped)
	f.Add([]byte{}, whole)
	f.Add([]byte{}, []byte{})

	f.Fuzz(func(t *testing.T, a, b []byte) {
		lead, valid := MirrorLead(a, b)
		want := bytes.Clone([][]byte{a, b}[lead][:valid[lead]])
		sa, sb := &MemStore{Buf: bytes.Clone(a)}, &MemStore{Buf: bytes.Clone(b)}
		m, err := Mirror(sa, sb)
		if err != nil {
			t.Fatalf("Mirror: %v", err)
		}
		if !bytes.Equal(sa.Buf, want) || !bytes.Equal(sb.Buf, want) {
			t.Fatalf("after open: a %d bytes, b %d bytes, want both the %d-byte valid prefix", len(sa.Buf), len(sb.Buf), len(want))
		}
		if c, err := Open(m); err == nil && c.TornBytes != 0 {
			t.Fatalf("the opened pair still had %d torn bytes", c.TornBytes)
		}
	})
}
