package wafl

import (
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
	inos := make([]Inum, 0, len(fs.states))
	for ino, st := range fs.states {
		if st.inodeDirty || len(st.dirty) > 0 {
			inos = append(inos, ino)
		}
	}
	slices.Sort(inos)

	dirtyInodeBlocks := make(map[uint32]bool)
	for _, ino := range inos {
		st := fs.states[ino]
		if err := fs.flushState(ctx, st); err != nil {
			return err
		}
		fs.bmap.nextGroup()
		dirtyInodeBlocks[uint32(ino)/InodesPerBlock] = true
	}

	// 2. Serialize dirty inodes into staged inode-file blocks.
	if err := fs.ensureFmap(ctx, fs.inofSt); err != nil {
		return err
	}
	needBlocks := (uint32(fs.nextIno) + InodesPerBlock - 1) / InodesPerBlock
	fs.inofSt.ino.Size = uint64(needBlocks) * BlockSize
	fbns := make([]uint32, 0, len(dirtyInodeBlocks))
	for fbn := range dirtyInodeBlocks {
		fbns = append(fbns, fbn)
	}
	slices.Sort(fbns)
	for _, fbn := range fbns {
		blk := fs.takeBuf()
		if pbn := fs.inofSt.fmap[fbn]; pbn != 0 {
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
		fs.inofSt.dirty[fbn] = blk
	}
	if err := fs.flushState(ctx, fs.inofSt); err != nil {
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

// flushState writes st's dirty data blocks to fresh allocations and
// rebuilds its block tree from the staged map.
func (fs *FS) flushState(ctx context.Context, st *istate) error {
	if len(st.dirty) == 0 && !st.inodeDirty && !st.treeDirty {
		return nil
	}
	if len(st.dirty) > 0 || st.treeDirty {
		if err := fs.ensureFmap(ctx, st); err != nil {
			return err
		}
		fbns := make([]uint32, 0, len(st.dirty))
		for fbn := range st.dirty {
			fbns = append(fbns, fbn)
		}
		slices.Sort(fbns)
		// What the filesystem reads again itself stays cached:
		// directories, symlinks and the inode file, for namei, Create,
		// Readdir and the next CP's inode merge. A regular file's data
		// does not: a restore writes ~4 250 data blocks per CP into a
		// 2 048-frame cache, which would evict every one of those.
		keep := st == fs.inofSt || !IsReg(st.ino.Mode)
		for _, fbn := range fbns {
			npbn := fs.bmap.alloc()
			if npbn == 0 {
				return ErrNoSpace
			}
			if old := st.fmap[fbn]; old != 0 {
				fs.bmap.free(old)
				fs.cache.drop(old)
			}
			st.fmap[fbn] = npbn
			if err := fs.writeBlock(ctx, npbn, st.dirty[fbn], keep); err != nil {
				return err
			}
			// The cache or the spare stack owns the buffer now.
			delete(st.dirty, fbn)
			// Billed at once, not through fs.charge: a consistency
			// point's CPU is spent under the lock, like its writes.
			fs.costs.charge(ctx, fs.costs.CPBlock)
		}
		st.dirty = make(map[uint32][]byte)
		if err := fs.rebuildTree(ctx, st); err != nil {
			return err
		}
		st.treeDirty = false
	}
	st.inodeDirty = true // inode carries new tree roots and must be serialized
	return nil
}

// rebuildTree frees st's old pointer blocks and writes a fresh tree
// covering exactly the staged map.
func (fs *FS) rebuildTree(ctx context.Context, st *istate) error {
	for _, pbn := range st.ptrBlocks {
		fs.bmap.free(pbn)
		fs.cache.drop(pbn)
	}
	st.ptrBlocks = st.ptrBlocks[:0]

	var maxFbn uint32
	hasAny := false
	for fbn := range st.fmap {
		if st.fmap[fbn] == 0 {
			delete(st.fmap, fbn)
			continue
		}
		hasAny = true
		if fbn > maxFbn {
			maxFbn = fbn
		}
	}
	for i := range st.ino.Direct {
		st.ino.Direct[i] = 0
	}
	st.ino.Indirect = 0
	st.ino.DblInd = 0
	if !hasAny {
		return nil
	}
	for fbn, pbn := range st.fmap {
		if fbn < NDirect {
			st.ino.Direct[fbn] = pbn
		}
	}
	writePtrBlock := func(ptrs []BlockNo) (BlockNo, error) {
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
	if maxFbn >= NDirect {
		ptrs := make([]BlockNo, PtrsPerBlock)
		any := false
		for i := 0; i < PtrsPerBlock; i++ {
			if p := st.fmap[NDirect+uint32(i)]; p != 0 {
				ptrs[i] = p
				any = true
			}
		}
		if any {
			pbn, err := writePtrBlock(ptrs)
			if err != nil {
				return err
			}
			st.ino.Indirect = pbn
		}
	}
	if maxFbn >= NDirect+PtrsPerBlock {
		l1 := make([]BlockNo, PtrsPerBlock)
		anyL1 := false
		for i := 0; i < PtrsPerBlock; i++ {
			l2 := make([]BlockNo, PtrsPerBlock)
			any := false
			base := NDirect + PtrsPerBlock + uint32(i)*PtrsPerBlock
			if base > maxFbn { // past the end of the file
				break
			}
			for j := 0; j < PtrsPerBlock; j++ {
				if p := st.fmap[base+uint32(j)]; p != 0 {
					l2[j] = p
					any = true
				}
			}
			if any {
				pbn, err := writePtrBlock(l2)
				if err != nil {
					return err
				}
				l1[i] = pbn
				anyL1 = true
			}
		}
		if anyL1 {
			pbn, err := writePtrBlock(l1)
			if err != nil {
				return err
			}
			st.ino.DblInd = pbn
		}
	}
	return nil
}

// flushBlkmapFile rewrites the whole block-map file copy-on-write.
func (fs *FS) flushBlkmapFile(ctx context.Context) error {
	st := &istate{
		ino:       fs.info.BlkmapFile,
		dirty:     make(map[uint32][]byte),
		fmap:      make(map[uint32]BlockNo),
		fmapValid: false,
	}
	if err := fs.ensureFmap(ctx, st); err != nil {
		return err
	}
	// Free the old map entirely, then allocate the new one.
	for fbn, pbn := range st.fmap {
		fs.bmap.free(pbn)
		fs.cache.drop(pbn)
		delete(st.fmap, fbn)
	}
	nWords := int(fs.info.NBlocks)
	nBlks := (nWords + PtrsPerBlock - 1) / PtrsPerBlock
	for fbn := 0; fbn < nBlks; fbn++ {
		pbn := fs.bmap.alloc()
		if pbn == 0 {
			return ErrNoSpace
		}
		st.fmap[uint32(fbn)] = pbn
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
		if err := fs.writeBlock(ctx, st.fmap[uint32(fbn)], blk, true); err != nil {
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
		if !st.inodeDirty && len(st.dirty) == 0 {
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
	if fs.opts.Env != nil && fs.opts.CPInterval > 0 && fs.nowSim()-fs.lastCPAt >= fs.opts.CPInterval {
		return fs.CP(ctx)
	}
	return nil
}

// Crash simulates a power loss: all staged state is discarded. The
// caller remounts with Mount, which replays the NVRAM log. The FS must
// not be used afterwards.
func (fs *FS) Crash() {
	fs.states = nil
	fs.inofSt = nil
	fs.bmap = nil
	fs.cache = newBlockCache(0)
}

// String describes the filesystem briefly.
func (fs *FS) String() string {
	return fmt.Sprintf("wafl gen=%d blocks=%d used=%d inodes=%d",
		fs.info.Gen, fs.info.NBlocks, fs.bmap.countPlane(ActiveBit), fs.nextIno)
}
