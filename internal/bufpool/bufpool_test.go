package bufpool

import (
	"runtime"
	"testing"
)

func TestClassRoundTrip(t *testing.T) {
	for _, n := range []int{1, 1024, 1025, 4096, 60<<10 + 8, 2 << 20} {
		p := Get(n)
		if len(*p) != n {
			t.Fatalf("Get(%d): len %d", n, len(*p))
		}
		if c := cap(*p); c&(c-1) != 0 {
			t.Fatalf("Get(%d): cap %d not a power of two", n, c)
		}
		Put(p)
	}
}

func TestReuse(t *testing.T) {
	p := Get(4096)
	(*p)[0] = 0xAB
	Put(p)
	q := Get(100)
	// Not guaranteed to be the same buffer (pools may drop), but if it
	// is, the length must have been re-sliced.
	if len(*q) != 100 {
		t.Fatalf("len %d", len(*q))
	}
	Put(q)
}

func TestOversizeAndDisabled(t *testing.T) {
	p := Get(8 << 20) // above maxClass: plain allocation
	if len(*p) != 8<<20 {
		t.Fatal("oversize len")
	}
	Put(p) // dropped, must not panic

	SetEnabled(false)
	defer SetEnabled(true)
	if Enabled() {
		t.Fatal("expected disabled")
	}
	q := Get(4096)
	if len(*q) != 4096 {
		t.Fatal("disabled Get len")
	}
	Put(q)
}

func TestPutForeignBuffer(t *testing.T) {
	b := make([]byte, 1000) // non-power-of-two cap
	Put(&b)                 // dropped
	Put(nil)                // no-op
}

// TestPutSurvivesGC: a buffer that is Put stays pooled across garbage
// collections, so how many buffers a pass allocates does not depend on
// when the collector ran (a sync.Pool empties at GC).
func TestPutSurvivesGC(t *testing.T) {
	const n = 3 << 20 // a class no other test here uses
	p := Get(n)
	(*p)[0] = 0xAB
	Put(p)
	runtime.GC()
	runtime.GC()
	if q := Get(n); q != p {
		t.Fatal("a buffer Put before two GCs did not come back from Get")
	}
}
