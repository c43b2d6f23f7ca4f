package wafl

import (
	"container/list"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/storage"
)

// listCache is the buffer cache as it was before the frame slab: a
// container/list of heap entries behind a map. It is kept as the oracle
// for blockCache, whose policy must match it object for object — the
// virtual clock pays for every miss, so a different hit or a different
// victim would move every table. Its one addition is the evicted log.
type listCache struct {
	max     int
	lru     *list.List // of listEntry, front = most recent
	index   map[BlockNo]*list.Element
	hits    int64
	misses  int64
	evicted []BlockNo
}

type listEntry struct {
	bno  BlockNo
	data []byte
}

func newListCache(maxBlocks int) *listCache {
	return &listCache{max: maxBlocks, lru: list.New(), index: make(map[BlockNo]*list.Element)}
}

func (c *listCache) get(bno BlockNo) []byte {
	if e, ok := c.index[bno]; ok {
		c.lru.MoveToFront(e)
		c.hits++
		return e.Value.(*listEntry).data
	}
	c.misses++
	return nil
}

func (c *listCache) insert(bno BlockNo, data []byte) {
	if c.max <= 0 {
		return
	}
	if e, ok := c.index[bno]; ok {
		e.Value.(*listEntry).data = data
		c.lru.MoveToFront(e)
		return
	}
	c.index[bno] = c.lru.PushFront(&listEntry{bno: bno, data: data})
	for c.lru.Len() > c.max {
		old := c.lru.Back()
		c.lru.Remove(old)
		bno := old.Value.(*listEntry).bno
		delete(c.index, bno)
		c.evicted = append(c.evicted, bno)
	}
}

func (c *listCache) drop(bno BlockNo) {
	if e, ok := c.index[bno]; ok {
		c.lru.Remove(e)
		delete(c.index, bno)
	}
}

// order returns the cached blocks, most recently used first.
func (c *listCache) order() []BlockNo {
	var out []BlockNo
	for e := c.lru.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*listEntry).bno)
	}
	return out
}

func (c *blockCache) order() []BlockNo {
	var out []BlockNo
	for i := c.head; i != noFrame; i = c.frames[i].next {
		out = append(out, c.frames[i].bno)
	}
	return out
}

// TestBlockCacheMatchesListCache drives the frame cache and the list
// cache it replaced with the same seeded get/insert/drop sequence over
// a key space a few times the cache, and requires the same answer to
// every get, the same hit and miss counts, the same LRU order after
// every operation and the same victims in the same order. Each buffer
// carries the block number and version it was inserted with, so a get
// that returned the right block's wrong buffer would show, and every
// buffer is accounted for: in a frame or in the caller's hands, never
// both, and never the one just handed over.
func TestBlockCacheMatchesListCache(t *testing.T) {
	for _, cfg := range []struct{ max, keys, ops int }{
		{0, 4, 1000}, {1, 3, 20000}, {2, 5, 20000}, {8, 24, 60000}, {64, 100, 60000},
	} {
		r := rand.New(rand.NewSource(int64(cfg.max)*7919 + 1))
		c, model := newBlockCache(cfg.max), newListCache(cfg.max)
		var spare [][]byte // buffers the cache traded back
		var victims []BlockNo
		made, version := 0, uint32(0)
		for op := 0; op < cfg.ops; op++ {
			bno := BlockNo(1 + r.Intn(cfg.keys))
			switch k := r.Intn(10); {
			case k < 5:
				got, want := c.get(bno), model.get(bno)
				if (got == nil) != (want == nil) || (got != nil && !slices.Equal(got, want)) {
					t.Fatalf("max %d op %d: get(%d) = %v, list cache says %v", cfg.max, op, bno, got, want)
				}
			case k < 9:
				var buf []byte
				if n := len(spare); n > 0 {
					buf, spare = spare[n-1], spare[:n-1]
				} else {
					buf = make([]byte, 8)
					made++
				}
				version++
				putU32(buf, uint32(bno))
				putU32(buf[4:], version)
				_, had := c.index[bno]
				full := len(c.index) == cfg.max
				old := c.insert(bno, buf)
				model.insert(bno, slices.Clone(buf))
				switch {
				case cfg.max == 0:
					if old != nil || len(c.index) != 0 {
						t.Fatalf("op %d: a cache of no blocks kept or returned a buffer", op)
					}
					spare = append(spare, buf) // still the caller's
					continue
				case old != nil && &old[0] == &buf[0]:
					t.Fatalf("max %d op %d: insert(%d) returned the buffer it was given", cfg.max, op, bno)
				case had && BlockNo(leU32(old)) != bno:
					t.Fatalf("max %d op %d: replacing %d returned block %d's buffer", cfg.max, op, bno, leU32(old))
				case !had && full:
					victims = append(victims, BlockNo(leU32(old)))
				}
				if old != nil {
					spare = append(spare, old)
				}
			default:
				c.drop(bno)
				model.drop(bno)
			}
			if got, want := c.order(), model.order(); !slices.Equal(got, want) {
				t.Fatalf("max %d op %d: LRU order %v, list cache has %v", cfg.max, op, got, want)
			}
			if len(c.index) != len(model.index) {
				t.Fatalf("max %d op %d: %d blocks indexed, list cache has %d", cfg.max, op, len(c.index), len(model.index))
			}
		}
		if c.hits != model.hits || c.misses != model.misses {
			t.Fatalf("max %d: %d hits %d misses, list cache counted %d and %d", cfg.max, c.hits, c.misses, model.hits, model.misses)
		}
		if !slices.Equal(victims, model.evicted) {
			t.Fatalf("max %d: eviction order differs from the list cache's (%d vs %d victims)", cfg.max, len(victims), len(model.evicted))
		}
		if cfg.max > 0 && len(victims) < cfg.ops/20 {
			t.Fatalf("max %d: only %d evictions in %d operations: the sequence does not exercise replacement", cfg.max, len(victims), cfg.ops)
		}
		// Every buffer made is in exactly one place.
		seen := make(map[*byte]bool)
		for _, b := range spare {
			seen[&b[0]] = true
		}
		for i := range c.frames {
			if b := c.frames[i].data; b != nil {
				if seen[&b[0]] {
					t.Fatalf("max %d: a buffer is both in frame %d and somewhere else", cfg.max, i)
				}
				seen[&b[0]] = true
			}
		}
		if len(seen) != made {
			t.Fatalf("max %d: %d buffers accounted for of %d made", cfg.max, len(seen), made)
		}
	}
}

// TestCacheReadAheadGoesRoundOnce: a block inserted as read-ahead is
// passed over the first time it is the eviction candidate and evicted
// the second; once it has been read it is an ordinary block. The
// buffer accounting of insert holds throughout: a full cache displaces
// exactly one buffer per new block.
func TestCacheReadAheadGoesRoundOnce(t *testing.T) {
	const blocks = 4
	c := newBlockCache(blocks)
	put := func(ahead bool, bno BlockNo) {
		t.Helper()
		full := len(c.index) == blocks
		insert := c.insert
		if ahead {
			insert = c.insertAhead
		}
		if old := insert(bno, make([]byte, 8)); (old != nil) != full {
			t.Fatalf("insert of block %d into a cache of %d: displaced buffer %v", bno, len(c.index), old)
		}
	}
	cached := func(want ...BlockNo) {
		t.Helper()
		got := c.order()
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("cache holds %v, want %v", got, want)
		}
	}
	put(true, 1)
	put(false, 2)
	put(false, 3)
	put(false, 4)
	put(false, 5) // 1 is the oldest, and is passed over: 2 goes
	cached(1, 3, 4, 5)
	put(false, 6)
	put(false, 7)
	cached(1, 5, 6, 7)
	put(false, 8) // its second turn
	cached(5, 6, 7, 8)

	put(true, 10)
	if c.get(10) == nil {
		t.Fatal("block 10 is not cached")
	}
	put(false, 11)
	put(false, 12)
	put(false, 13)
	put(false, 14) // 10 was read: no second round
	cached(11, 12, 13, 14)

	// Read-ahead blocks alone: each is passed over once, then the
	// oldest goes.
	for b := BlockNo(20); b < 24; b++ {
		put(true, b)
	}
	put(true, 24)
	cached(21, 22, 23, 24)
	if hits, misses := c.stats(); hits != 1 || misses != 0 {
		t.Fatalf("%d hits %d misses, want the one get", hits, misses)
	}
}

// cacheInsertStep returns one insert of an uncached block into a full
// cache: an eviction, with the victim's buffer carrying the next block.
func cacheInsertStep(tb testing.TB) func() {
	const blocks = 256
	c := newBlockCache(blocks)
	for b := BlockNo(1); b <= blocks; b++ {
		c.insert(b, make([]byte, BlockSize))
	}
	buf := make([]byte, BlockSize)
	next := BlockNo(blocks)
	return func() {
		next++
		if buf = c.insert(next, buf); buf == nil {
			tb.Fatal("a full cache displaced no buffer")
		}
	}
}

func BenchmarkCacheInsert(b *testing.B) {
	step := cacheInsertStep(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

func TestCacheInsertZeroAlloc(t *testing.T) {
	if n := testing.AllocsPerRun(1000, cacheInsertStep(t)); n != 0 {
		t.Fatalf("insert into a full cache: %v allocs per run, want 0", n)
	}
}

// readMissStep returns one readBlock that misses, on a filesystem that
// has been reading for a while: the file is four times the cache and
// read round-robin, so every read evicts a block and reads the next
// into the buffer that block gave up.
func readMissStep(tb testing.TB) func() {
	const cacheBlocks, fileBlocks = 16, 64
	fs, err := Mkfs(ctx, storage.NewMemDevice(1024), nil, Options{CacheBlocks: cacheBlocks})
	if err != nil {
		tb.Fatal(err)
	}
	ino, err := fs.WriteFile(ctx, "/f", randBytes(5, fileBlocks*BlockSize), 0644)
	if err != nil {
		tb.Fatal(err)
	}
	if err := fs.CP(ctx); err != nil {
		tb.Fatal(err)
	}
	pbns := make([]BlockNo, fileBlocks)
	for fbn := range pbns {
		if pbns[fbn], err = fs.ActiveView().BlockAt(ctx, ino, uint32(fbn)); err != nil || pbns[fbn] == 0 {
			tb.Fatalf("fbn %d: pbn %d, %v", fbn, pbns[fbn], err)
		}
	}
	i := 0
	step := func() {
		_, misses := fs.CacheStats()
		if _, err := fs.readBlock(ctx, pbns[i%fileBlocks]); err != nil {
			tb.Fatal(err)
		}
		if _, after := fs.CacheStats(); after != misses+1 {
			tb.Fatal("the read did not miss")
		}
		i++
	}
	for range pbns {
		step()
	}
	return step
}

func BenchmarkReadBlockMiss(b *testing.B) {
	step := readMissStep(b)
	b.SetBytes(BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

func TestReadBlockMissZeroAlloc(t *testing.T) {
	if n := testing.AllocsPerRun(1000, readMissStep(t)); n != 0 {
		t.Fatalf("readBlock miss on a warm filesystem: %v allocs per run, want 0", n)
	}
}
