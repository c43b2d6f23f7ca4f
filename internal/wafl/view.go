package wafl

import (
	"context"
	"fmt"
	"slices"
)

// View is a read surface over either the active filesystem or one
// snapshot. The active view sees staged (not yet consistency-pointed)
// state; snapshot views read purely from the frozen on-disk image —
// this is what lets logical dump "present a completely consistent view
// of the file system" (paper §3) while the live system keeps running.
type View struct {
	fs   *FS
	snap *SnapEntry // nil for the active view
}

// ActiveView returns the live filesystem view.
func (fs *FS) ActiveView() *View { return &View{fs: fs} }

// FS returns the filesystem the view belongs to.
func (v *View) FS() *FS { return v.fs }

// IsSnapshot reports whether this is a snapshot (read-only) view.
func (v *View) IsSnapshot() bool { return v.snap != nil }

// SnapshotName returns the snapshot's name, or "" for the active view.
func (v *View) SnapshotName() string {
	if v.snap == nil {
		return ""
	}
	return v.snap.Name
}

// NumInodes returns the number of inode slots visible in this view.
func (v *View) NumInodes(ctx context.Context) uint64 {
	if v.snap == nil {
		return uint64(v.fs.nextIno)
	}
	return v.snap.Root.Size / InodeSize
}

// GetInode returns inode ino as seen by the view.
func (v *View) GetInode(ctx context.Context, ino Inum) (Inode, error) {
	if v.snap == nil {
		return v.fs.GetInode(ctx, ino)
	}
	inode, err := v.getInodeSnap(ctx, ino)
	if err != nil {
		return Inode{}, err
	}
	if !inode.Allocated() {
		return Inode{}, fmt.Errorf("%w: %d is free in snapshot %q", ErrBadInode, ino, v.snap.Name)
	}
	return inode, nil
}

// getInodeSnap reads an inode (possibly a free slot) from the
// snapshot's frozen inode file.
func (v *View) getInodeSnap(ctx context.Context, ino Inum) (Inode, error) {
	if ino < RootIno || uint64(ino) >= v.NumInodes(ctx) {
		return Inode{}, fmt.Errorf("%w: %d", ErrBadInode, ino)
	}
	fbn := uint32(ino) / InodesPerBlock
	pbn, err := v.fs.walkTree(ctx, &v.snap.Root, fbn)
	if err != nil {
		return Inode{}, err
	}
	if pbn == 0 {
		return Inode{}, nil
	}
	blk, err := v.fs.readBlock(ctx, pbn)
	if err != nil {
		return Inode{}, err
	}
	off := (uint32(ino) % InodesPerBlock) * InodeSize
	return UnmarshalInode(blk[off : off+InodeSize]), nil
}

// readAt reads file data as seen by the view.
func (v *View) readAt(ctx context.Context, ino Inum, off uint64, buf []byte) (int, error) {
	if v.snap == nil {
		return v.fs.readAt(ctx, ino, off, buf)
	}
	inode, err := v.GetInode(ctx, ino)
	if err != nil {
		return 0, err
	}
	return v.readAtSnap(ctx, &inode, off, buf)
}

func (v *View) readAtSnap(ctx context.Context, inode *Inode, off uint64, buf []byte) (int, error) {
	if off >= inode.Size {
		return 0, nil
	}
	if max := inode.Size - off; uint64(len(buf)) > max {
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
		pbn, err := v.fs.walkTree(ctx, inode, fbn)
		if err != nil {
			return n, err
		}
		if pbn == 0 {
			for i := 0; i < want; i++ {
				buf[n+i] = 0
			}
		} else {
			src, err := v.fs.readBlock(ctx, pbn)
			if err != nil {
				return n, err
			}
			copy(buf[n:n+want], src[bo:bo+want])
		}
		v.fs.charge(ctx, v.fs.costs.ReadBlock+v.fs.costs.CopyBlock)
		n += want
	}
	return n, nil
}

// ReadAt reads up to len(buf) bytes of file ino starting at off,
// returning the count read (short only at end of file).
func (v *View) ReadAt(ctx context.Context, ino Inum, off uint64, buf []byte) (int, error) {
	inode, err := v.GetInode(ctx, ino)
	if err != nil {
		return 0, err
	}
	if IsDir(inode.Mode) {
		return 0, ErrIsDir
	}
	return v.readAt(ctx, ino, off, buf)
}

// BlockAt resolves file block fbn of ino to its physical block (0 for
// a hole), as seen by the view. Dump uses this to build hole maps.
func (v *View) BlockAt(ctx context.Context, ino Inum, fbn uint32) (BlockNo, error) {
	if v.snap == nil {
		st, err := v.fs.state(ctx, ino)
		if err != nil {
			return 0, err
		}
		if _, ok := v.fs.stagedBlock(ino, st, fbn); ok {
			return 1, nil // staged data: not a hole; physical home not yet assigned
		}
		return v.fs.mapping(ctx, st, fbn)
	}
	inode, err := v.GetInode(ctx, ino)
	if err != nil {
		return 0, err
	}
	return v.fs.walkTree(ctx, &inode, fbn)
}

// Prefetch asynchronously reads the physical blocks in pbns into the
// buffer cache, in ascending block order whatever order the caller
// collected them in: pbns is sorted in place, and holes (0), repeats
// and blocks already cached are dropped. Each remaining block charges
// device time through the device's Prefetcher without blocking the
// caller beyond its read-ahead queue depth, so a disk sees one forward
// sweep per call. On a volume of several RAID groups the sweep is one
// per group, a block of each in turn: the groups are independent
// spindles, and a caller held up by the queue of one has by then fed
// the others as well. The logical dump engine drives all of its
// read-ahead through this (paper §3).
func (v *View) Prefetch(ctx context.Context, pbns []BlockNo) {
	slices.Sort(pbns)
	groups := v.fs.bmap.groups
	// pbns[lo[g]:lo[g+1]] are group g's blocks; up to eight groups
	// need no allocation.
	var few [9]int
	lo := few[:0]
	for _, g := range groups {
		i, _ := slices.BinarySearch(pbns, BlockNo(g.start))
		lo = append(lo, i)
	}
	lo = append(lo, len(pbns))
	for round, issued := 0, true; issued; round++ {
		issued = false
		for g := range groups {
			i := lo[g] + round
			if i >= lo[g+1] {
				continue
			}
			if ctx.Err() != nil {
				return
			}
			v.fs.prefetchBlock(ctx, pbns[i]) // skips what an earlier element cached
			issued = true
		}
	}
}

// InodeBlock returns the physical block that must be read to resolve
// inode ino in this view, or 0 when none need be: the slot is out of
// range or in a never-written region of the inode file, or (active
// view) the inode's state is already in memory.
func (v *View) InodeBlock(ctx context.Context, ino Inum) (BlockNo, error) {
	if ino < RootIno || uint64(ino) >= v.NumInodes(ctx) {
		return 0, nil
	}
	fbn := uint32(ino) / InodesPerBlock
	if v.snap != nil {
		return v.fs.walkTree(ctx, &v.snap.Root, fbn)
	}
	if _, ok := v.fs.states[ino]; ok {
		return 0, nil
	}
	return v.fs.inodeFilePbn(ctx, fbn)
}

// CacheBlocks returns the capacity of the buffer cache the view reads
// through, in blocks: the budget a caller's read-ahead must fit in.
func (v *View) CacheBlocks() int { return v.fs.cache.max }

// Readlink returns the target of symlink ino. Targets are stored as
// file data.
func (v *View) Readlink(ctx context.Context, ino Inum) (string, error) {
	inode, err := v.GetInode(ctx, ino)
	if err != nil {
		return "", err
	}
	if !IsSymlink(inode.Mode) {
		return "", fmt.Errorf("%w: inode %d is not a symlink", ErrBadInode, ino)
	}
	buf := make([]byte, inode.Size)
	if _, err := v.readAt(ctx, ino, 0, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// ReadFile reads the whole contents of the file at path.
func (v *View) ReadFile(ctx context.Context, path string) ([]byte, error) {
	ino, err := v.Namei(ctx, path)
	if err != nil {
		return nil, err
	}
	inode, err := v.GetInode(ctx, ino)
	if err != nil {
		return nil, err
	}
	if IsDir(inode.Mode) {
		return nil, ErrIsDir
	}
	buf := make([]byte, inode.Size)
	if _, err := v.readAt(ctx, ino, 0, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Stat returns the inode behind path.
func (v *View) Stat(ctx context.Context, path string) (Inode, error) {
	ino, err := v.Namei(ctx, path)
	if err != nil {
		return Inode{}, err
	}
	return v.GetInode(ctx, ino)
}
