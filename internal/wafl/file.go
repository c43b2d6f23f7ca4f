package wafl

import (
	"context"
	"fmt"
	"sort"
)

// state returns (creating if needed) the staged state for ino, loading
// the inode from the inode file on first touch.
func (fs *FS) state(ctx context.Context, ino Inum) (*istate, error) {
	if st, ok := fs.states[ino]; ok {
		return st, nil
	}
	if ino < RootIno || ino >= fs.nextIno {
		return nil, fmt.Errorf("%w: %d", ErrBadInode, ino)
	}
	inode, err := fs.readInodeRaw(ctx, ino)
	if err != nil {
		return nil, err
	}
	st := fs.newState()
	st.ino = inode
	fs.states[ino] = st
	return st, nil
}

// newState returns an empty istate carved from the current slab, so
// that inodes touched one after another cost an allocation per
// stateSlab of them, not one each.
func (fs *FS) newState() *istate {
	const stateSlab = 64
	if len(fs.slab) == 0 {
		fs.slab = make([]istate, stateSlab)
	}
	st := &fs.slab[0]
	fs.slab = fs.slab[1:]
	st.fmap = st.small[:0]
	return st
}

// stagedBlock returns the staged contents of block fbn of ino, whose
// state is st, if it has any.
func (fs *FS) stagedBlock(ino Inum, st *istate, fbn uint32) ([]byte, bool) {
	if st.ndirty == 0 {
		return nil, false
	}
	blk, ok := fs.staged[blockKey{ino, fbn}]
	return blk, ok
}

// stage makes blk the staged contents of block fbn of ino, whose state
// is st and whose block map is loaded. The caller accounts for
// fs.stagedBlocks.
func (fs *FS) stage(ino Inum, st *istate, fbn uint32, blk []byte) {
	k := blockKey{ino, fbn}
	if _, ok := fs.staged[k]; !ok {
		st.ndirty++
		st.cover(fbn + 1)
	}
	fs.staged[k] = blk
}

// unstage drops the staged blocks of ino, whose state is st, from fbn lo
// on and returns how many there were.
func (fs *FS) unstage(ino Inum, st *istate, lo uint32) int {
	n := 0
	for fbn := lo; st.ndirty > 0 && uint64(fbn) < uint64(len(st.fmap)); fbn++ {
		k := blockKey{ino, fbn}
		if _, ok := fs.staged[k]; ok {
			delete(fs.staged, k)
			st.ndirty--
			n++
		}
	}
	return n
}

// readInodeRaw reads inode ino straight from the on-disk inode file,
// bypassing staged state.
func (fs *FS) readInodeRaw(ctx context.Context, ino Inum) (Inode, error) {
	fbn := uint32(ino) / InodesPerBlock
	pbn, err := fs.inodeFilePbn(ctx, fbn)
	if err != nil {
		return Inode{}, err
	}
	if pbn == 0 {
		return Inode{}, nil // never-written inode-file region: free slots
	}
	blk, err := fs.readBlock(ctx, pbn)
	if err != nil {
		return Inode{}, err
	}
	off := (uint32(ino) % InodesPerBlock) * InodeSize
	return UnmarshalInode(blk[off : off+InodeSize]), nil
}

// inodeFilePbn maps an inode-file fbn to its physical block, using the
// staged map when present.
func (fs *FS) inodeFilePbn(ctx context.Context, fbn uint32) (BlockNo, error) {
	return fs.mapping(ctx, fs.inofSt, fbn)
}

// ensureFmap loads the complete fbn→pbn mapping for st if not already
// present, recording the tree's pointer blocks for later replacement.
func (fs *FS) ensureFmap(ctx context.Context, st *istate) error {
	if st.fmapValid {
		return nil
	}
	st.fmap = st.fmap[:0]
	st.cover(min(st.ino.Blocks(), MaxFileBlocks))
	st.ptrBlocks = st.ptrBlocks[:0]
	err := fs.treeBlocks(ctx, &st.ino,
		func(fbn uint32, pbn BlockNo) {
			st.cover(fbn + 1)
			st.fmap[fbn] = pbn
		},
		func(pbn BlockNo) { st.ptrBlocks = append(st.ptrBlocks, pbn) })
	if err != nil {
		return err
	}
	st.fmapValid = true
	return nil
}

// mapping resolves fbn of st, preferring the staged map.
func (fs *FS) mapping(ctx context.Context, st *istate, fbn uint32) (BlockNo, error) {
	if st.fmapValid {
		return st.pbn(fbn), nil
	}
	return fs.walkTree(ctx, &st.ino, fbn)
}

// GetInode returns the current (staged or on-disk) inode.
func (fs *FS) GetInode(ctx context.Context, ino Inum) (Inode, error) {
	st, err := fs.state(ctx, ino)
	if err != nil {
		return Inode{}, err
	}
	if !st.ino.Allocated() {
		return Inode{}, fmt.Errorf("%w: %d is free", ErrBadInode, ino)
	}
	return st.ino, nil
}

// allocInode assigns an inode number: the lowest freed slot if any,
// else a fresh one at the end of the inode file. Lowest-first is load
// bearing: it makes allocation a pure function of the current free
// set, so NVRAM replay (which rebuilds the free set by rescanning the
// last consistency point) assigns the same numbers the live run did.
func (fs *FS) allocInode(ctx context.Context) (Inum, *istate, error) {
	var ino Inum
	if len(fs.freeInos) > 0 {
		ino = fs.freeInos[0]
		fs.freeInos = fs.freeInos[1:]
	} else {
		ino = fs.nextIno
		fs.nextIno++
	}
	st, err := fs.state(ctx, ino)
	if err != nil {
		return 0, nil, err
	}
	if st.ino.Allocated() {
		return 0, nil, fmt.Errorf("%w: alloc found inode %d in use", ErrCorrupt, ino)
	}
	gen := st.ino.Gen + 1
	st.ino = Inode{Gen: gen}
	st.inodeDirty = true
	st.fmap = st.fmap[:0]
	st.fmapValid = true
	st.ptrBlocks = st.ptrBlocks[:0]
	return ino, st, nil
}

// readAt reads from the active file ino at off into buf, honouring
// staged data and holes, charging CPU costs and driving read-ahead.
func (fs *FS) readAt(ctx context.Context, ino Inum, off uint64, buf []byte) (int, error) {
	st, err := fs.state(ctx, ino)
	if err != nil {
		return 0, err
	}
	if !st.ino.Allocated() {
		return 0, ErrBadInode
	}
	if off >= st.ino.Size {
		return 0, nil
	}
	if max := st.ino.Size - off; uint64(len(buf)) > max {
		buf = buf[:max]
	}
	n := 0
	for n < len(buf) {
		fbn := uint32((off + uint64(n)) / BlockSize)
		bo := int((off + uint64(n)) % BlockSize)
		want := len(buf) - n
		if want > BlockSize-bo {
			want = BlockSize - bo
		}
		var src []byte
		if d, ok := fs.stagedBlock(ino, st, fbn); ok {
			src = d
		} else {
			pbn, err := fs.mapping(ctx, st, fbn)
			if err != nil {
				return n, err
			}
			if pbn != 0 {
				fs.readAhead(ctx, ino, st, fbn)
				src, err = fs.readBlock(ctx, pbn)
				if err != nil {
					return n, err
				}
			}
		}
		if src == nil {
			for i := 0; i < want; i++ {
				buf[n+i] = 0
			}
		} else {
			copy(buf[n:n+want], src[bo:bo+want])
		}
		fs.charge(ctx, fs.costs.ReadBlock+fs.costs.CopyBlock)
		n += want
	}
	return n, nil
}

// readAhead prefetches the physical blocks behind the next few file
// blocks when the access pattern on ino is sequential. This is the
// filesystem's own policy; the dump engine in internal/logical can
// drive deeper, dump-aware read-ahead itself (paper §3).
func (fs *FS) readAhead(ctx context.Context, ino Inum, st *istate, fbn uint32) {
	if fs.pref == nil {
		return
	}
	last, seen := fs.lastRead[ino]
	fs.lastRead[ino] = fbn
	if !seen || fbn != last+1 {
		return
	}
	blocks := st.ino.Blocks()
	for i := uint32(1); i <= readAheadBlocks; i++ {
		next := fbn + i
		if next >= blocks {
			break
		}
		if _, ok := fs.stagedBlock(ino, st, next); ok {
			continue
		}
		pbn, err := fs.mapping(ctx, st, next)
		if err != nil || pbn == 0 {
			continue
		}
		fs.prefetchBlock(ctx, pbn)
	}
}

// prefetchBlock charges an asynchronous device read for pbn and warms
// the buffer cache with its contents, so the later demand read hits
// the cache instead of paying the device twice. The async charge is
// bounded by the disk's write-behind depth, which models a finite
// read-ahead queue. A block the device declines to prefetch stays
// uncached: its demand read pays for it on the clock.
func (fs *FS) prefetchBlock(ctx context.Context, pbn BlockNo) {
	if pbn == 0 || fs.cache.get(pbn) != nil {
		return
	}
	if fs.pref != nil {
		if d, ok := fs.pref.(prefetchDecliner); ok && !d.CanPrefetch(int(pbn)) {
			return
		}
		fs.pref.Prefetch(ctx, int(pbn))
	}
	buf := fs.takeBuf()
	if err := fs.dev.ReadBlock(context.Background(), int(pbn), buf); err != nil {
		fs.giveBuf(buf)
		return
	}
	fs.giveBuf(fs.cache.insertAhead(pbn, buf))
}

// writeAt stages a write to the active file ino at off, charging the
// per-block CPU cost. The data is not on disk until the next
// consistency point; a copy is logged to NVRAM by the public op
// wrappers.
func (fs *FS) writeAt(ctx context.Context, ino Inum, off uint64, data []byte) error {
	return fs.writeAtOpts(ctx, ino, off, data, true)
}

// writeAtQuiet stages a write whose data-path costs the caller has
// already billed (see FS.Write).
func (fs *FS) writeAtQuiet(ctx context.Context, ino Inum, off uint64, data []byte) error {
	return fs.writeAtOpts(ctx, ino, off, data, false)
}

func (fs *FS) writeAtOpts(ctx context.Context, ino Inum, off uint64, data []byte, charge bool) error {
	st, err := fs.state(ctx, ino)
	if err != nil {
		return err
	}
	if !st.ino.Allocated() {
		return ErrBadInode
	}
	end := off + uint64(len(data))
	if (end+BlockSize-1)/BlockSize > MaxFileBlocks {
		return ErrFileTooBig
	}
	if err := fs.ensureFmap(ctx, st); err != nil {
		return err
	}
	// Conservative space check: every newly staged block will need an
	// allocation at the next CP (plus tree and map overhead estimated
	// by the caller-visible FreeBlocks slack).
	newBlocks := 0
	for b := off / BlockSize; b*BlockSize < end; b++ {
		if _, ok := fs.stagedBlock(ino, st, uint32(b)); !ok {
			newBlocks++
		}
	}
	if fs.bmap.freeBlocks()-fs.stagedBlocks < newBlocks+8 {
		return ErrNoSpace
	}
	st.cover(uint32((end + BlockSize - 1) / BlockSize))
	n := 0
	for n < len(data) {
		fbn := uint32((off + uint64(n)) / BlockSize)
		bo := int((off + uint64(n)) % BlockSize)
		want := len(data) - n
		if want > BlockSize-bo {
			want = BlockSize - bo
		}
		blk, ok := fs.stagedBlock(ino, st, fbn)
		if !ok {
			blk = fs.takeBuf()
			// Partial block write: read-modify-write over existing
			// data, zeroes where there is none.
			if bo != 0 || want != BlockSize {
				if pbn := st.fmap[fbn]; pbn != 0 {
					old, err := fs.readBlock(ctx, pbn)
					if err != nil {
						return err
					}
					copy(blk, old)
				} else {
					clear(blk)
				}
			}
			fs.stage(ino, st, fbn, blk)
			fs.stagedBlocks++
		}
		copy(blk[bo:bo+want], data[n:n+want])
		if charge {
			fs.charge(ctx, fs.costs.WriteBlock+fs.costs.CopyBlock)
		}
		n += want
	}
	if end > st.ino.Size {
		st.ino.Size = end
	}
	st.ino.Mtime = fs.now()
	st.ino.Ctime = st.ino.Mtime
	st.inodeDirty = true
	return nil
}

// truncateTo stages a truncation of ino to size bytes, freeing blocks
// past the new end immediately (they stay frozen until the CP commits).
func (fs *FS) truncateTo(ctx context.Context, ino Inum, size uint64) error {
	st, err := fs.state(ctx, ino)
	if err != nil {
		return err
	}
	if !st.ino.Allocated() {
		return ErrBadInode
	}
	if err := fs.ensureFmap(ctx, st); err != nil {
		return err
	}
	newBlocks := uint32((size + BlockSize - 1) / BlockSize)
	fs.stagedBlocks -= fs.unstage(ino, st, newBlocks)
	if uint64(newBlocks) < uint64(len(st.fmap)) {
		fs.release(st.fmap[newBlocks:])
		st.fmap = st.fmap[:newBlocks]
	}
	// Zero the tail of a now-partial last block.
	if size%BlockSize != 0 && size < st.ino.Size {
		fbn := uint32(size / BlockSize)
		cut := int(size % BlockSize)
		blk, ok := fs.stagedBlock(ino, st, fbn)
		if !ok {
			if pbn := st.pbn(fbn); pbn != 0 {
				old, err := fs.readBlock(ctx, pbn)
				if err != nil {
					return err
				}
				blk = fs.takeBuf()
				copy(blk, old)
				fs.stage(ino, st, fbn, blk)
				fs.stagedBlocks++
			}
		}
		if blk != nil {
			for i := cut; i < BlockSize; i++ {
				blk[i] = 0
			}
		}
	}
	st.ino.Size = size
	st.ino.Mtime = fs.now()
	st.ino.Ctime = st.ino.Mtime
	st.inodeDirty = true
	st.treeDirty = true
	return nil
}

// freeInode releases ino's data and marks the slot free. The caller is
// responsible for having removed all directory references first.
func (fs *FS) freeInode(ctx context.Context, ino Inum) error {
	st, err := fs.state(ctx, ino)
	if err != nil {
		return err
	}
	if err := fs.ensureFmap(ctx, st); err != nil {
		return err
	}
	fs.stagedBlocks -= fs.unstage(ino, st, 0)
	fs.release(st.fmap)
	fs.release(st.ptrBlocks)
	gen := st.ino.Gen
	st.ino = Inode{Gen: gen}
	st.inodeDirty = true
	st.fmap = st.fmap[:0]
	st.fmapValid = true
	st.ptrBlocks = st.ptrBlocks[:0]
	fs.addFreeIno(ino)
	delete(fs.lastRead, ino)
	return nil
}

// release frees every block of pbns (holes are 0 and skipped) and
// forgets any cached copy.
func (fs *FS) release(pbns []BlockNo) {
	for _, pbn := range pbns {
		if pbn != 0 {
			fs.bmap.free(pbn)
			fs.cache.drop(pbn)
		}
	}
}

// addFreeIno inserts ino into the sorted free list.
func (fs *FS) addFreeIno(ino Inum) {
	i := sort.Search(len(fs.freeInos), func(i int) bool { return fs.freeInos[i] >= ino })
	fs.freeInos = append(fs.freeInos, 0)
	copy(fs.freeInos[i+1:], fs.freeInos[i:])
	fs.freeInos[i] = ino
}
