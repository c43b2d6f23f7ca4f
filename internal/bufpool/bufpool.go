// Package bufpool is a free-list arena for the block and record
// buffers of the backup data path. The RAID layer's de-striping
// scratch, dumpfmt's blocked tape records and physical's image stream
// records all recycle through it, so the steady-state dump/restore
// record path (header + payload + CRC) runs allocation-free. The
// simulated media keep their bytes in slabs from it too: a tape
// cartridge's records and a storage.MemDevice's blocks.
//
// Each size class is a mutex-guarded free list, not a sync.Pool: a
// sync.Pool empties at every GC, so how many buffers a pass
// re-allocated would depend on when the collector ran. A free list
// keeps what was Put until it is taken again, so it holds at most as
// many buffers of a class as were once in use at the same time.
//
// Ownership rule: a buffer obtained from Get belongs to the caller
// until Put; after Put it must not be touched. Layers that hand a
// pooled buffer to a Sink rely on the sink contract that records are
// consumed (copied or written out) before WriteRecord returns — see
// DESIGN.md "Data path".
//
// Pooling can be disabled (SetEnabled(false)), which makes Get
// allocate fresh and Put drop; the aliasing property tests compare
// dump streams produced both ways byte for byte.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// minClass is the smallest pooled size (1 KB, one dumpfmt unit);
// maxClass the largest (4 MB, covers the 2 MB image-dump run buffer).
const (
	minShift = 10
	maxShift = 22
	nClasses = maxShift - minShift + 1
)

// freeList is one size class's recycled buffers.
type freeList struct {
	mu   sync.Mutex
	bufs []*[]byte
}

var pools [nClasses]freeList

func (l *freeList) get() (p *[]byte) {
	l.mu.Lock()
	if n := len(l.bufs); n > 0 {
		p, l.bufs[n-1], l.bufs = l.bufs[n-1], nil, l.bufs[:n-1]
	}
	l.mu.Unlock()
	return p
}

func (l *freeList) put(p *[]byte) {
	l.mu.Lock()
	l.bufs = append(l.bufs, p)
	l.mu.Unlock()
}

var disabled atomic.Bool

// SetEnabled turns pooling on or off globally. Off means Get always
// allocates and Put discards — for tests that prove pooled and
// unpooled runs produce identical streams.
func SetEnabled(on bool) { disabled.Store(!on) }

// Enabled reports whether pooling is active.
func Enabled() bool { return !disabled.Load() }

// class returns the pool index whose buffers hold n bytes, or -1 when
// n is too large to pool.
func class(n int) int {
	if n <= 1<<minShift {
		return 0
	}
	c := bits.Len(uint(n - 1)) // ceil(log2 n)
	if c > maxShift {
		return -1
	}
	return c - minShift
}

// Get returns a pointer to a zero-or-stale-content slice of length n.
// The pointer (not just the slice) should be passed back to Put so
// recycling does not re-box the slice header.
func Get(n int) *[]byte {
	if c := class(n); c >= 0 && Enabled() {
		if p := pools[c].get(); p != nil {
			*p = (*p)[:n]
			return p
		}
		b := make([]byte, n, 1<<(c+minShift))
		return &b
	}
	b := make([]byte, n)
	return &b
}

// Free returns how many buffers of n's class the next Gets of that
// class take without allocating; 0 for a size too large to pool.
func Free(n int) int {
	c := class(n)
	if c < 0 {
		return 0
	}
	pools[c].mu.Lock()
	defer pools[c].mu.Unlock()
	return len(pools[c].bufs)
}

// Put recycles a buffer obtained from Get. Buffers whose capacity is
// not an exact pool class (or when pooling is disabled) are dropped.
func Put(p *[]byte) {
	if p == nil || !Enabled() {
		return
	}
	c := cap(*p)
	if c < 1<<minShift || c > 1<<maxShift || c&(c-1) != 0 {
		return
	}
	*p = (*p)[:c]
	pools[bits.Len(uint(c))-1-minShift].put(p)
}
