package wafl

import "container/list"

// blockCache is an LRU cache of physical blocks. Because the
// filesystem is copy-on-write, a block's contents never change while
// it is referenced, which makes coherence trivial: entries are
// inserted on read and on write, and a freed-then-reused block is
// simply overwritten by the write that reuses it.
type blockCache struct {
	max    int
	lru    *list.List // of cacheEntry, front = most recent
	index  map[BlockNo]*list.Element
	hits   int64
	misses int64
}

type cacheEntry struct {
	bno  BlockNo
	data []byte
}

func newBlockCache(maxBlocks int) *blockCache {
	return &blockCache{
		max:   maxBlocks,
		lru:   list.New(),
		index: make(map[BlockNo]*list.Element),
	}
}

// get returns the cached contents of bno, or nil. The returned slice
// is owned by the cache; callers must not modify it.
func (c *blockCache) get(bno BlockNo) []byte {
	if e, ok := c.index[bno]; ok {
		c.lru.MoveToFront(e)
		c.hits++
		return e.Value.(*cacheEntry).data
	}
	c.misses++
	return nil
}

// insert caches data as the contents of bno, replacing what was there.
// The caller hands the buffer over: the cache owns data from here on,
// so a block read from the device, or staged and then written by a
// consistency point, is allocated once.
func (c *blockCache) insert(bno BlockNo, data []byte) {
	if c.max <= 0 {
		return
	}
	if e, ok := c.index[bno]; ok {
		e.Value.(*cacheEntry).data = data
		c.lru.MoveToFront(e)
		return
	}
	c.index[bno] = c.lru.PushFront(&cacheEntry{bno: bno, data: data})
	for c.lru.Len() > c.max {
		old := c.lru.Back()
		c.lru.Remove(old)
		delete(c.index, old.Value.(*cacheEntry).bno)
	}
}

// drop removes bno from the cache (used when a block is freed).
func (c *blockCache) drop(bno BlockNo) {
	if e, ok := c.index[bno]; ok {
		c.lru.Remove(e)
		delete(c.index, bno)
	}
}

// stats returns cumulative hits and misses.
func (c *blockCache) stats() (hits, misses int64) { return c.hits, c.misses }
