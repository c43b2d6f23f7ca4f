package wafl

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/sim"
)

// CP takes a consistency point: every piece of dirty state — file data,
// block trees, inodes, the inode file, the block-map file — is written
// copy-on-write to freshly allocated blocks, and finally a new root
// structure is committed to the fixed fsinfo locations. Between CPs
// nothing on disk changes except by allocation of previously free,
// unfrozen blocks, so the on-disk image is always the self-consistent
// state of the previous CP (paper §2.2).
func (fs *FS) CP(ctx context.Context) error {
	defer fs.lock(ctx)()
	// 1. Flush dirty file data and rebuild the block trees of modified
	//    files, in inode order for determinism. Each file's blocks go
	//    to one RAID group and the next file's to the next group, so
	//    that streams reading different files find different spindles.
	inos := fs.cpInos[:0]
	for ino, st := range fs.states {
		if st.inodeDirty || st.ndirty > 0 {
			inos = append(inos, ino)
		}
	}
	slices.Sort(inos)
	fs.cpInos = inos
	// Every staged block of a file belongs to one of inos, so each file's
	// blocks are the next run of keys. The inode file's sort first and
	// are step 2's: only a CP that failed half-way leaves any.
	keys := fs.sortedStaged()
	for len(keys) > 0 && keys[0].ino == inofIno {
		keys = keys[1:]
	}
	for _, ino := range inos {
		n := 0
		for n < len(keys) && keys[n].ino == ino {
			n++
		}
		if err := fs.flushState(ctx, fs.states[ino], keys[:n]); err != nil {
			return err
		}
		keys = keys[n:]
		fs.bmap.nextGroup()
	}
	if len(keys) > 0 {
		return fmt.Errorf("%w: block %d of inode %d staged without a state", ErrCorrupt, keys[0].fbn, keys[0].ino)
	}

	// 2. Serialize dirty inodes into staged inode-file blocks: the blocks
	//    of the inodes just flushed, each once, in ascending order.
	if err := fs.ensureFmap(ctx, fs.inofSt); err != nil {
		return err
	}
	needBlocks := (uint32(fs.nextIno) + InodesPerBlock - 1) / InodesPerBlock
	fs.inofSt.ino.Size = uint64(needBlocks) * BlockSize
	for i, ino := range inos {
		fbn := uint32(ino) / InodesPerBlock
		if i > 0 && fbn == uint32(inos[i-1])/InodesPerBlock {
			continue
		}
		blk := fs.takeBuf()
		if pbn := fs.inofSt.pbn(fbn); pbn != 0 {
			old, err := fs.readBlock(ctx, pbn)
			if err != nil {
				return err
			}
			copy(blk, old)
		} else {
			clear(blk)
		}
		for slot := uint32(0); slot < InodesPerBlock; slot++ {
			ino := Inum(fbn*InodesPerBlock + slot)
			if st, ok := fs.states[ino]; ok && st.inodeDirty {
				st.ino.Marshal(blk[slot*InodeSize:])
			}
		}
		fs.stage(inofIno, fs.inofSt, fbn, blk)
	}
	if err := fs.flushState(ctx, fs.inofSt, fs.sortedStaged()); err != nil {
		return err
	}
	fs.info.InodeFile = fs.inofSt.ino
	fs.info.InodeFile.Mode = ModeReg

	// 3. Rewrite the block-map file. Allocation placement does not
	//    depend on map contents, so we can allocate every block of the
	//    new map (and its tree) first and serialize afterwards — the
	//    serialized contents then already reflect those allocations.
	if err := fs.flushBlkmapFile(ctx); err != nil {
		return err
	}

	// 4. Commit the new root structure, redundantly.
	fs.info.Gen++
	fs.info.CPTime = fs.Clock()
	fs.info.NInodes = uint64(fs.nextIno)
	fsiBuf := marshalFsinfo(&fs.info)
	for _, start := range []int{fsinfoBlockA, fsinfoBlockB} {
		for i := 0; i < fsinfoSpan; i++ {
			if err := fs.dev.WriteBlock(ctx, start+i, fsiBuf[i*BlockSize:(i+1)*BlockSize]); err != nil {
				return err
			}
		}
	}

	// 5. The on-disk image just became the fallback state: freeze it,
	//    clear dirty flags, reset the NVRAM log.
	fs.bmap.refreeze()
	for _, st := range fs.states {
		st.inodeDirty = false
	}
	fs.stagedBlocks = 0
	if fs.log != nil && !fs.replaying {
		fs.log.Reset()
	}
	fs.lastCPAt = fs.nowSim()
	fs.cpCount++
	fs.trimStates()
	return nil
}

// sortedStaged lists the keys of every staged block in (inode, fbn)
// order, in the CP's scratch.
func (fs *FS) sortedStaged() []blockKey {
	keys := fs.cpKeys[:0]
	for k := range fs.staged {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b blockKey) int {
		return cmp.Or(cmp.Compare(a.ino, b.ino), cmp.Compare(a.fbn, b.fbn))
	})
	fs.cpKeys = keys
	return keys
}

// flushState writes st's dirty data blocks (keys: all of them, in
// ascending fbn order) to fresh allocations and rebuilds its block tree
// from its block map.
func (fs *FS) flushState(ctx context.Context, st *istate, keys []blockKey) error {
	if len(keys) == 0 && !st.inodeDirty && !st.treeDirty {
		return nil
	}
	if len(keys) > 0 || st.treeDirty {
		if err := fs.ensureFmap(ctx, st); err != nil {
			return err
		}
		// What the filesystem reads again itself stays cached:
		// directories, symlinks and the inode file, for namei, Create,
		// Readdir and the next CP's inode merge. A regular file's data
		// does not: a restore writes ~4 250 data blocks per CP into a
		// 2 048-frame cache, which would evict every one of those.
		keep := st == fs.inofSt || !IsReg(st.ino.Mode)
		for _, k := range keys {
			npbn := fs.bmap.alloc()
			if npbn == 0 {
				return ErrNoSpace
			}
			if old := st.fmap[k.fbn]; old != 0 {
				fs.bmap.free(old)
				fs.cache.drop(old)
			}
			st.fmap[k.fbn] = npbn
			if err := fs.writeBlock(ctx, npbn, fs.staged[k], keep); err != nil {
				return err
			}
			// The cache or the spare stack owns the buffer now.
			delete(fs.staged, k)
			st.ndirty--
			// Billed at once, not through fs.charge: a consistency
			// point's CPU is spent under the lock, like its writes.
			fs.costs.charge(ctx, fs.costs.CPBlock)
		}
		if err := fs.rebuildTree(ctx, st); err != nil {
			return err
		}
		st.treeDirty = false
	}
	st.inodeDirty = true // inode carries new tree roots and must be serialized
	return nil
}

// rebuildTree frees st's old pointer blocks and writes a fresh tree
// covering exactly its block map.
func (fs *FS) rebuildTree(ctx context.Context, st *istate) error {
	fs.release(st.ptrBlocks)
	st.ptrBlocks = st.ptrBlocks[:0]

	// Trailing holes need no pointers.
	n := uint32(len(st.fmap))
	for n > 0 && st.fmap[n-1] == 0 {
		n--
	}
	st.fmap = st.fmap[:n]
	st.ino.Direct = [NDirect]BlockNo{}
	copy(st.ino.Direct[:], st.fmap)
	// window is the part of the map one pointer block from fbn lo covers.
	window := func(lo uint32) []BlockNo { return st.fmap[min(lo, n):min(lo+PtrsPerBlock, n)] }
	var err error
	if st.ino.Indirect, err = fs.writePtrBlock(ctx, st, window(NDirect)); err != nil {
		return err
	}
	st.ino.DblInd = 0
	if n > NDirect+PtrsPerBlock {
		var l1 [PtrsPerBlock]BlockNo
		for i := range l1 {
			base := NDirect + PtrsPerBlock + uint32(i)*PtrsPerBlock
			if base >= n { // past the end of the file
				break
			}
			if l1[i], err = fs.writePtrBlock(ctx, st, window(base)); err != nil {
				return err
			}
		}
		if st.ino.DblInd, err = fs.writePtrBlock(ctx, st, l1[:]); err != nil {
			return err
		}
	}
	return nil
}

// writePtrBlock writes ptrs, zero-padded, to a freshly allocated pointer
// block of st's tree and returns it. Pointers that are all holes need
// no block: it returns 0 and allocates nothing.
func (fs *FS) writePtrBlock(ctx context.Context, st *istate, ptrs []BlockNo) (BlockNo, error) {
	if !slices.ContainsFunc(ptrs, func(p BlockNo) bool { return p != 0 }) {
		return 0, nil
	}
	pbn := fs.bmap.alloc()
	if pbn == 0 {
		return 0, ErrNoSpace
	}
	blk := fs.takeBuf()
	for i, p := range ptrs {
		putU32(blk[4*i:], uint32(p))
	}
	clear(blk[4*len(ptrs):])
	if err := fs.writeBlock(ctx, pbn, blk, true); err != nil {
		return 0, err
	}
	fs.costs.charge(ctx, fs.costs.CPBlock)
	st.ptrBlocks = append(st.ptrBlocks, pbn)
	return pbn, nil
}

// flushBlkmapFile rewrites the whole block-map file copy-on-write.
func (fs *FS) flushBlkmapFile(ctx context.Context) error {
	st := &istate{ino: fs.info.BlkmapFile}
	if err := fs.ensureFmap(ctx, st); err != nil {
		return err
	}
	// Free the old map entirely, then allocate the new one.
	fs.release(st.fmap)
	st.fmap = st.fmap[:0]
	nWords := int(fs.info.NBlocks)
	nBlks := (nWords + PtrsPerBlock - 1) / PtrsPerBlock
	for fbn := 0; fbn < nBlks; fbn++ {
		pbn := fs.bmap.alloc()
		if pbn == 0 {
			return ErrNoSpace
		}
		st.fmap = append(st.fmap, pbn)
	}
	if err := fs.rebuildTree(ctx, st); err != nil {
		return err
	}
	// Serialize after every allocation above has mutated the map.
	for fbn := 0; fbn < nBlks; fbn++ {
		blk := fs.takeBuf()
		n := min(PtrsPerBlock, nWords-fbn*PtrsPerBlock)
		for i := 0; i < n; i++ {
			putU32(blk[4*i:], fs.bmap.words[fbn*PtrsPerBlock+i])
		}
		clear(blk[4*n:])
		if err := fs.writeBlock(ctx, st.fmap[fbn], blk, true); err != nil {
			return err
		}
		fs.costs.charge(ctx, fs.costs.CPBlock)
	}
	st.ino.Mode = ModeReg
	st.ino.Size = uint64(nBlks) * BlockSize
	fs.info.BlkmapFile = st.ino
	return nil
}

// trimStates bounds the in-memory inode/state cache, keeping recently
// interesting entries only. States are clean after a CP, so dropping
// them is always safe.
func (fs *FS) trimStates() {
	const maxStates = 8192
	if len(fs.states) <= maxStates {
		return
	}
	for ino, st := range fs.states {
		if ino == RootIno {
			continue
		}
		if !st.inodeDirty && st.ndirty == 0 {
			delete(fs.states, ino)
		}
		if len(fs.states) <= maxStates/2 {
			break
		}
	}
}

// nowSim returns the simulation clock, or zero when untimed.
func (fs *FS) nowSim() sim.Time {
	if fs.opts.Env != nil {
		return fs.opts.Env.Now()
	}
	return 0
}

// maybeCP takes a consistency point when policy calls for one: the
// NVRAM log has hit its high-water mark, or the CP interval has passed
// on the virtual clock. Never fires during replay (the log must keep
// its entries until a deliberate post-replay CP).
func (fs *FS) maybeCP(ctx context.Context) error {
	if fs.replaying {
		return nil
	}
	if fs.log != nil && fs.log.NeedCP() {
		return fs.CP(ctx)
	}
	if fs.opts.Env != nil && fs.nowSim()-fs.lastCPAt >= cpInterval {
		return fs.CP(ctx)
	}
	return nil
}

// Crash simulates a power loss: all staged state is discarded. The
// caller remounts with Mount, which replays the NVRAM log. The FS must
// not be used afterwards.
func (fs *FS) Crash() {
	fs.states = nil
	fs.staged = nil
	fs.inofSt = nil
	fs.bmap = nil
	fs.cache = newBlockCache(0)
}

// String describes the filesystem briefly.
func (fs *FS) String() string {
	return fmt.Sprintf("wafl gen=%d blocks=%d used=%d inodes=%d",
		fs.info.Gen, fs.info.NBlocks, fs.bmap.countPlane(ActiveBit), fs.nextIno)
}
