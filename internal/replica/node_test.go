package replica

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/catalog"
)

// testFrames returns n journal frames as a catalog writes them.
func testFrames(t *testing.T, n int) [][]byte {
	t.Helper()
	store := &catalog.MemStore{}
	cat, err := catalog.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		appendSet(t, cat, int64(100*(i+1)))
	}
	var out [][]byte
	var last int64 = -1
	end, _ := catalog.ScanFrames(store.Buf, func(off int64, _ []byte) error {
		if last >= 0 {
			out = append(out, store.Buf[last:off])
		}
		last = off
		return nil
	})
	out = append(out, store.Buf[last:end])
	if len(out) != n {
		t.Fatalf("%d appends wrote %d frames", n, len(out))
	}
	return out
}

func join(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// TestNodeRules: every rule one node applies on its own, case by case
// over a node that holds two frames and has seen view 2. Each case
// states whether the call succeeds and the journal it leaves, both the
// cached copy and the durable store.
func TestNodeRules(t *testing.T) {
	f := testFrames(t, 3)
	j := join(f[0], f[1])
	size := int64(len(j))
	mangled := join(f[2])
	mangled[len(mangled)-1] ^= 0xff
	// suffixIs asks n, as the primary, what a node holding have lacks.
	suffixIs := func(n *node, have []byte, from int64, data []byte) bool {
		gotFrom, got := n.suffixFor(have)
		return gotFrom == from && bytes.Equal(got, data)
	}

	for _, c := range []struct {
		name string
		op   func(n *node) bool
		ok   bool
		want []byte
	}{
		{"append at the expected offset", func(n *node) bool {
			return n.append(2, size, f[2])
		}, true, join(j, f[2])},
		{"append from a newer view raises the fence", func(n *node) bool {
			return n.append(3, size, f[2]) && !n.truncate(2, 0)
		}, true, join(j, f[2])},
		{"identical duplicate is re-acked, not rewritten", func(n *node) bool {
			return n.append(2, int64(len(f[0])), f[1])
		}, true, j},
		{"append over a diverged tail", func(n *node) bool {
			return n.append(2, int64(len(f[0])), f[2])
		}, false, j},
		{"append past the end: lagging", func(n *node) bool {
			return n.append(2, size+int64(len(f[2])), f[2])
		}, false, j},
		{"append from a stale view", func(n *node) bool {
			return n.append(1, size, f[2])
		}, false, j},
		{"append of a partial frame", func(n *node) bool {
			return n.append(2, size, f[2][:len(f[2])-1])
		}, false, j},
		{"append of a mangled frame", func(n *node) bool {
			return n.append(2, size, mangled)
		}, false, j},
		{"install truncates the tail and appends", func(n *node) bool {
			return n.install(2, int64(len(f[0])), f[2])
		}, true, join(f[0], f[2])},
		{"install from a stale view", func(n *node) bool {
			return n.install(1, 0, f[2])
		}, false, j},
		{"install from past the end", func(n *node) bool {
			return n.install(2, size+1, f[2])
		}, false, j},
		{"install from a negative offset", func(n *node) bool {
			return n.install(2, -1, f[2])
		}, false, j},
		{"install of a partial frame", func(n *node) bool {
			return n.install(2, size, f[2][:len(f[2])-1])
		}, false, j},
		{"truncate", func(n *node) bool {
			return n.truncate(2, int64(len(f[0])))
		}, true, f[0]},
		{"truncate from a stale view", func(n *node) bool {
			return n.truncate(1, int64(len(f[0])))
		}, false, j},
		{"truncate past the end", func(n *node) bool {
			return n.truncate(2, size+1)
		}, false, j},
		{"truncate to a negative size", func(n *node) bool {
			return n.truncate(2, -1)
		}, false, j},
		{"catch-up of a prefix is the suffix", func(n *node) bool {
			return suffixIs(n, f[0], int64(len(f[0])), f[1]) && suffixIs(n, j, size, nil) &&
				suffixIs(n, nil, 0, j)
		}, true, j},
		{"catch-up of a diverged journal is the whole journal", func(n *node) bool {
			return suffixIs(n, f[2], 0, j) && suffixIs(n, join(f[0], f[2]), 0, j)
		}, true, j},
		{"catch-up of a longer journal", func(n *node) bool {
			return suffixIs(n, join(j, f[2]), size, nil) && suffixIs(n, join(f[0], f[2], f[1]), 0, j)
		}, true, j},
		{"append copies the caller's frame", func(n *node) bool {
			frame := join(f[2])
			defer func() { frame[20] ^= 0xff }()
			return n.truncate(2, 0) && n.append(2, 0, frame)
		}, true, f[2]},
		{"install copies the caller's data", func(n *node) bool {
			data := join(f[2])
			defer func() { data[20] ^= 0xff }()
			return n.install(2, 0, data)
		}, true, f[2]},
	} {
		store := &catalog.MemStore{Buf: join(j)}
		n, err := openNode("n", store)
		if err != nil {
			t.Fatal(err)
		}
		n.maxView = 2
		if got := c.op(n); got != c.ok {
			t.Errorf("%s: ok = %v, want %v", c.name, got, c.ok)
		}
		if got := n.journal(); !bytes.Equal(got, c.want) {
			t.Errorf("%s: journal of %d bytes differs from the %d wanted", c.name, len(got), len(c.want))
		}
		if !bytes.Equal(store.Buf, c.want) {
			t.Errorf("%s: durable journal of %d bytes differs from the %d wanted", c.name, len(store.Buf), len(c.want))
		}
	}
}

// TestRestartRacesAppends restarts and partitions a backup in a loop
// while dump sets are appended — the -race stage's catch-up subject.
// Restart and Rejoin are whole operations like Append, so no append
// lands between a catch-up's read of the primary and its install: the
// caught-up backup always holds every acknowledged byte, every
// acknowledged set replays, and all journals converge.
func TestRestartRacesAppends(t *testing.T) {
	c := newTestCluster(t)
	cat, err := catalog.Open(c)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if i%2 == 0 {
				c.Kill("n1")
				if err := c.Restart("n1"); err != nil {
					t.Error(err)
					return
				}
			} else {
				c.Isolate("n1")
				c.Rejoin("n1")
			}
			acked := c.AckedSize()
			if got := int64(len(c.Journal("n1"))); got < acked {
				t.Errorf("caught-up backup holds %d of %d acknowledged bytes", got, acked)
				return
			}
		}
	}()
	const sets = 1000
	for i := int64(1); i <= sets; i++ {
		if _, err := cat.AppendDumpSet(catalog.DumpSet{Engine: catalog.Logical, FSID: "vol0", Date: i,
			Media: []catalog.MediaRef{{Volume: "t0"}}}); err != nil {
			t.Errorf("append %d: %v", i, err)
			break
		}
	}
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}
	appendSet(t, cat, sets+1)
	assertConverged(t, c)
	replay, err := catalog.Open(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(replay.Sets()); got != sets+1 {
		t.Fatalf("replayed %d sets, want %d", got, sets+1)
	}
}
