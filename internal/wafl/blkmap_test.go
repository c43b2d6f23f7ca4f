package wafl

import (
	"math/rand"
	"testing"
)

// cursorAlloc is the allocator as it was before the block map knew the
// volume's geometry: one cursor moving over the whole address space.
// It is kept as the model the grouped allocator is held to on a device
// of one group — every rig on a MemDevice, the engines' golden stream
// digests among them, depends on those block numbers not moving.
type cursorAlloc struct {
	m      *blkmap // words and frozen set only; its groups are not used
	cursor int
}

func (a *cursorAlloc) alloc() BlockNo {
	m := a.m
	n := len(m.words)
	for i := 0; i < n; i++ {
		b := (a.cursor + i) % n
		if b < fsinfoReserved { // fsinfo blocks are never allocatable
			continue
		}
		if m.words[b] == 0 && !m.isFrozen(BlockNo(b)) {
			m.words[b] = ActiveBit
			a.cursor = b + 1
			return BlockNo(b)
		}
	}
	return 0
}

// scanFree counts the allocatable blocks word by word, spelling the
// rule out rather than calling allocatable: the oracle the block map's
// own count is held to.
func (m *blkmap) scanFree() int {
	n := 0
	for b, w := range m.words {
		if b >= fsinfoReserved && w == 0 && !m.isFrozen(BlockNo(b)) {
			n++
		}
	}
	return n
}

// TestOneGroupAllocatesLikeTheCursor drives the allocator on a device
// without geometry and the old single-cursor allocator through the same
// long random sequence of allocations, frees, consistency points,
// snapshot planes copied and cleared, and remounts, over a map small
// enough to fill up and wrap many times, and wants the same block from
// both at every step, and the map's count of free blocks equal to a
// scan of it after every step.
func TestOneGroupAllocatesLikeTheCursor(t *testing.T) {
	const nblocks = 700
	fresh := func() (*blkmap, *cursorAlloc) {
		got, want := newBlkmap(nblocks, []int{0}), &cursorAlloc{m: newBlkmap(nblocks, []int{0}), cursor: fsinfoReserved}
		for b := BlockNo(0); b < fsinfoReserved; b++ {
			got.setActive(b)
			want.m.setActive(b)
		}
		return got, want
	}
	got, want := fresh()
	r := rand.New(rand.NewSource(21))
	var held []BlockNo
	allocs, full := 0, 0
	for step := 0; step < 200000; step++ {
		switch op := r.Intn(100); {
		case op < 55:
			// What a file does at a consistency point: a run of blocks,
			// then on to the next group.
			for n := r.Intn(12) + 1; n > 0; n-- {
				g, w := got.alloc(), want.alloc()
				if g != w {
					t.Fatalf("step %d: allocated block %d, the cursor allocator %d", step, g, w)
				}
				allocs++
				if g == 0 {
					full++
					break
				}
				held = append(held, g)
			}
			got.nextGroup()
		case op < 95:
			for n := r.Intn(12) + 1; n > 0 && len(held) > 0; n-- {
				i := r.Intn(len(held))
				got.free(held[i])
				want.m.free(held[i])
				held[i] = held[len(held)-1]
				held = held[:len(held)-1]
			}
		case op < 97:
			got.refreeze()
			want.m.refreeze()
		case op < 98:
			// A snapshot of the active plane, in one of three slots.
			s := SnapBit(r.Intn(3) + 1)
			got.copyPlane(ActiveBit, s)
			want.m.copyPlane(ActiveBit, s)
		case op < 99:
			s := SnapBit(r.Intn(3) + 1)
			got.clearPlane(s)
			want.m.clearPlane(s)
		default:
			// Mount: a new map over the same words, cursors at the start.
			g2, w2 := fresh()
			copy(g2.words, got.words)
			copy(w2.m.words, want.m.words)
			g2.refreeze()
			w2.m.refreeze()
			got, want = g2, w2
		}
		if n, scan := got.freeBlocks(), got.scanFree(); n != scan {
			t.Fatalf("step %d: the map counts %d blocks free, a scan %d", step, n, scan)
		}
	}
	if allocs < 100000 || full == 0 {
		t.Fatalf("%d allocations, %d of them on a full map: the sequence no longer covers what it should", allocs, full)
	}
	for b := range got.words {
		if got.words[b] != want.m.words[b] {
			t.Fatalf("block %d: word %#x, the cursor allocator's %#x", b, got.words[b], want.m.words[b])
		}
	}
}

// TestGroupCursorsAndSpill: each group allocates from its own cursor,
// nextGroup turns to the following group, and a group with nothing
// free hands over to the next one with room — for good, not for one
// block — until the whole map is full.
func TestGroupCursorsAndSpill(t *testing.T) {
	m := newBlkmap(300, []int{0, 100, 200})
	for b := BlockNo(0); b < fsinfoReserved; b++ {
		m.setActive(b)
	}
	group := func(b BlockNo) int { return int(b) / 100 }
	first := m.alloc()
	if first != fsinfoReserved || m.alloc() != first+1 {
		t.Fatalf("group 0 started at %d", first)
	}
	m.nextGroup()
	if b := m.alloc(); b != 100 {
		t.Fatalf("after nextGroup allocated %d, want 100", b)
	}
	m.nextGroup()
	if b := m.alloc(); b != 200 {
		t.Fatalf("after the second nextGroup allocated %d, want 200", b)
	}
	m.nextGroup()
	if b := m.alloc(); b != first+2 {
		t.Fatalf("back in group 0 allocated %d, want %d: the group lost its cursor", b, first+2)
	}
	// Fill group 0; the next allocation spills into group 1 and stays.
	for b := m.alloc(); group(b) == 0; b = m.alloc() {
	}
	if b := m.alloc(); group(b) != 1 {
		t.Fatalf("after spilling out of group 0 allocated %d", b)
	}
	// Until everything is taken there is always a block.
	n := 0
	for m.alloc() != 0 {
		n++
	}
	if free := m.freeBlocks(); free != 0 {
		t.Fatalf("alloc gave up with %d blocks free", free)
	}
	if n < 190 {
		t.Fatalf("only %d blocks came out of groups 1 and 2", n)
	}
}
