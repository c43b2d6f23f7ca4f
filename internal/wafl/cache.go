package wafl

// blockCache is an LRU cache of physical blocks. Because the
// filesystem is copy-on-write, a block's contents never change while
// it is referenced, which makes coherence trivial: entries are
// inserted on read and on a consistency point's metadata writes, and a
// freed-then-reused block is overwritten by the write that reuses it —
// or dropped, when that write is file data the CP does not keep
// (FS.writeBlock).
//
// The entries live in one slab of max frames, threaded by index into
// an LRU list and a free list, so caching a block allocates nothing.
// Buffers are traded, not copied: insert takes the caller's buffer and
// hands back the one it displaced, which the filesystem reuses for its
// next block (FS.takeBuf).
type blockCache struct {
	max    int
	frames []frame           // frames[:used] have been handed out at least once
	index  map[BlockNo]int32 // cached block → its frame
	head   int32             // most recently used frame, noFrame when empty
	tail   int32             // least recently used frame
	free   int32             // dropped frames, linked through next; each keeps its buffer
	used   int32
	hits   int64
	misses int64
}

// frame is one cache slot. prev and next are frame indexes: both link
// the LRU list while the frame is cached, next alone the free list.
// ahead marks a block that was read ahead and has not been read yet.
type frame struct {
	bno        BlockNo
	data       []byte
	prev, next int32
	ahead      bool
}

const noFrame = -1

func newBlockCache(maxBlocks int) *blockCache {
	c := &blockCache{max: maxBlocks, head: noFrame, tail: noFrame, free: noFrame}
	if maxBlocks > 0 {
		c.frames = make([]frame, maxBlocks)
		c.index = make(map[BlockNo]int32, maxBlocks)
	}
	return c
}

// unlink takes frame i out of the LRU list.
func (c *blockCache) unlink(i int32) {
	f := &c.frames[i]
	if f.prev == noFrame {
		c.head = f.next
	} else {
		c.frames[f.prev].next = f.next
	}
	if f.next == noFrame {
		c.tail = f.prev
	} else {
		c.frames[f.next].prev = f.prev
	}
}

// pushFront makes frame i the most recently used.
func (c *blockCache) pushFront(i int32) {
	f := &c.frames[i]
	f.prev, f.next = noFrame, c.head
	if c.head == noFrame {
		c.tail = i
	} else {
		c.frames[c.head].prev = i
	}
	c.head = i
}

// touch makes cached frame i the most recently used.
func (c *blockCache) touch(i int32) {
	if c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

// get returns the cached contents of bno, or nil. The returned slice
// is owned by the cache: callers must not modify it, and it is theirs
// to read only until the next insert, which may hand the buffer on.
func (c *blockCache) get(bno BlockNo) []byte {
	if i, ok := c.index[bno]; ok {
		c.touch(i)
		c.hits++
		c.frames[i].ahead = false
		return c.frames[i].data
	}
	c.misses++
	return nil
}

// insert caches data as the contents of bno, replacing what was there,
// and trades buffers with the caller: the cache owns data from here on,
// and the caller owns the returned buffer — the one data displaced (a
// replaced entry's, an evicted block's, or one a dropped block left in
// its frame), stale contents and all — or nil when nothing was
// displaced. A cache of no blocks keeps nothing and returns nothing:
// data stays the caller's.
func (c *blockCache) insert(bno BlockNo, data []byte) []byte {
	if c.max <= 0 {
		return nil
	}
	if i, ok := c.index[bno]; ok {
		f := &c.frames[i]
		old := f.data
		f.data, f.ahead = data, false
		c.touch(i)
		return old
	}
	var i int32
	switch {
	case c.free != noFrame:
		i = c.free
		c.free = c.frames[i].next
	case int(c.used) < c.max:
		i = c.used
		c.used++
	default:
		// A block read ahead and still unread goes round once more:
		// whoever asked for it is behind the rest of the traffic, and
		// without it will fall further behind.
		for i = c.tail; c.frames[i].ahead; i = c.tail {
			c.frames[i].ahead = false
			c.touch(i)
		}
		c.unlink(i)
		delete(c.index, c.frames[i].bno)
	}
	f := &c.frames[i]
	old := f.data
	f.bno, f.data, f.ahead = bno, data, false
	c.pushFront(i)
	c.index[bno] = i
	return old
}

// insertAhead is insert for a block nobody has asked for yet (read-
// ahead). Until its first get the block is passed over once when its
// turn to be evicted comes, so that traffic which has nothing to do
// with its reader — other dump streams running ahead of this one —
// has to fill the cache twice over to push it out.
func (c *blockCache) insertAhead(bno BlockNo, data []byte) []byte {
	old := c.insert(bno, data)
	if c.max > 0 {
		c.frames[c.head].ahead = true // insert leaves bno's frame at the head
	}
	return old
}

// drop removes bno from the cache (used when a block is freed). Its
// frame goes on the free list with its buffer, which the next insert of
// a new block takes instead of evicting.
func (c *blockCache) drop(bno BlockNo) {
	if i, ok := c.index[bno]; ok {
		c.unlink(i)
		delete(c.index, bno)
		c.frames[i].next = c.free
		c.free = i
	}
}

// stats returns cumulative hits and misses.
func (c *blockCache) stats() (hits, misses int64) { return c.hits, c.misses }
