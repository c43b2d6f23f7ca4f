package wafl

// The block map keeps one 32-bit word per volume block (paper §2.1):
// bit 0 says the block belongs to the active filesystem and bit s
// (1 ≤ s ≤ 20) says it belongs to the snapshot with id s. A block is
// free only when its whole word is zero.
//
// The in-memory map reflects the state the *next* consistency point
// will commit. Blocks referenced by the *last committed* consistency
// point are additionally held in the frozen set and are never
// reallocated before the next CP commits, so a crash can always fall
// back to the on-disk image.
//
// The map keeps an exact count of the blocks the allocator may hand out
// (allocatable), so a write's space check costs nothing however large
// the volume. The single-block mutators adjust it; the passes over the
// whole map recount it in the loop they already run.

// ActiveBit is the block-map bit plane of the live filesystem.
const ActiveBit uint32 = 1 << 0

// SnapBit returns the bit-plane mask for snapshot id s (1..MaxSnapshots).
func SnapBit(id int) uint32 { return 1 << uint(id) }

// blkmap is the in-memory block map plus the allocator state.
type blkmap struct {
	words  []uint32
	frozen []uint64 // bitset: referenced by the last committed CP
	groups []allocGroup
	cur    int // index in groups of the one allocations come from
	nfree  int // blocks for which allocatable holds
}

// allocGroup is one stretch of the volume backed by its own spindles
// (a RAID group), with its own allocation cursor.
type allocGroup struct {
	start, end int // volume blocks [start, end)
	cursor     int // next allocation probe position, in [start, end]
}

// newBlkmap makes an all-free map of nblocks blocks whose allocation
// groups begin at starts (ascending, from 0). Every cursor stands at
// the start of its group.
func newBlkmap(nblocks int, starts []int) *blkmap {
	m := &blkmap{
		words:  make([]uint32, nblocks),
		frozen: make([]uint64, (nblocks+63)/64),
		groups: make([]allocGroup, len(starts)),
	}
	for i, start := range starts {
		end := nblocks
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		m.groups[i] = allocGroup{start: start, end: end, cursor: start}
	}
	m.nfree = max(nblocks-fsinfoReserved, 0)
	return m
}

func (m *blkmap) isFrozen(b BlockNo) bool {
	return m.frozen[b/64]&(1<<(uint(b)%64)) != 0
}

// allocatable reports whether the allocator may hand out b now: it is
// not an fsinfo block, no plane holds it and the last CP does not.
func (m *blkmap) allocatable(b int) bool {
	return b >= fsinfoReserved && m.words[b] == 0 && !m.isFrozen(BlockNo(b))
}

// setWord stores w as b's word, keeping the allocatable count exact.
func (m *blkmap) setWord(b int, w uint32) {
	if m.allocatable(b) {
		m.nfree--
	}
	m.words[b] = w
	if m.allocatable(b) {
		m.nfree++
	}
}

// refreeze recomputes the frozen set from the current words; called
// when a consistency point commits (everything now on disk is
// protected until the next CP).
func (m *blkmap) refreeze() {
	for i := range m.frozen {
		m.frozen[i] = 0
	}
	free := 0
	for b, w := range m.words {
		if w != 0 {
			m.frozen[b/64] |= 1 << (uint(b) % 64)
		} else if b >= fsinfoReserved {
			free++
		}
	}
	m.nfree = free
}

// alloc finds a free block near the current group's cursor, marks it
// active and returns it. It returns 0 (an invalid block) when the
// volume is full. The moving cursor gives WAFL-ish locality:
// consecutive allocations are contiguous when free space is
// contiguous, and scattered when a mature filesystem has scattered its
// free space — the effect the paper's "mature data set" footnote
// describes. A group with nothing free spills: allocation moves on to
// the next group and stays there.
func (m *blkmap) alloc() BlockNo {
	for range m.groups {
		g := &m.groups[m.cur]
		n := g.end - g.start
		for i := 0; i < n; i++ {
			b := g.start + (g.cursor-g.start+i)%n
			if m.allocatable(b) {
				m.words[b] = ActiveBit
				g.cursor = b + 1
				m.nfree--
				return BlockNo(b)
			}
		}
		m.nextGroup()
	}
	return 0
}

// nextGroup moves allocation to the next group of the volume, so that
// what is written next lands on other spindles than what was written
// last. A consistency point calls it between files.
func (m *blkmap) nextGroup() {
	m.cur = (m.cur + 1) % len(m.groups)
}

// free clears the active bit of b. The block becomes reusable only
// once no snapshot plane holds it and the next CP commits.
func (m *blkmap) free(b BlockNo) {
	if b < fsinfoReserved || int(b) >= len(m.words) {
		return
	}
	m.setWord(int(b), m.words[b]&^ActiveBit)
}

// setActive marks b as belonging to the active filesystem without
// going through the allocator (used by mkfs; an image restore writes
// its map to disk, and Mount's refreeze counts it).
func (m *blkmap) setActive(b BlockNo) {
	if int(b) < len(m.words) {
		m.setWord(int(b), m.words[b]|ActiveBit)
	}
}

// copyPlane copies the src plane into the dst plane across the map,
// implementing snapshot creation (active→snap) and, inverted, nothing
// else: snapshot deletion just clears the plane.
func (m *blkmap) copyPlane(srcMask, dstMask uint32) {
	free := 0
	for i, w := range m.words {
		if w&srcMask != 0 {
			m.words[i] |= dstMask
		} else {
			m.words[i] &^= dstMask
		}
		if m.allocatable(i) {
			free++
		}
	}
	m.nfree = free
}

// clearPlane removes every bit of the given plane (snapshot deletion).
func (m *blkmap) clearPlane(mask uint32) {
	free := 0
	for i := range m.words {
		m.words[i] &^= mask
		if m.allocatable(i) {
			free++
		}
	}
	m.nfree = free
}

// countPlane returns the number of blocks in the given plane.
func (m *blkmap) countPlane(mask uint32) int {
	n := 0
	for _, w := range m.words {
		if w&mask != 0 {
			n++
		}
	}
	return n
}

// freeBlocks returns the number of blocks allocatable right now.
func (m *blkmap) freeBlocks() int { return m.nfree }
