package wafl

import (
	"context"
	"fmt"
	"sort"
	"strings"
)

// Directories are specially formatted files (paper §2): each 4 KB
// block holds a chain of variable-length records that exactly covers
// the block:
//
//	[ino uint32][reclen uint16][namelen uint8][ftype uint8][name ...pad4]
//
// A record with ino == 0 is free space. Records never cross block
// boundaries. This is the classic FFS shape, which is also what the
// paper's dump format describes ("directories are written in a simple,
// known format of the file name followed by the inode number").

const dirRecFixed = 8 // bytes before the name

// DirEnt is one directory entry as returned by Readdir.
type DirEnt struct {
	Name string
	Ino  Inum
	Type uint32 // ModeDir / ModeReg / ModeSymlink
}

// dirRecLen returns the space a record with an n-byte name occupies.
func dirRecLen(n int) int { return (dirRecFixed + n + 3) &^ 3 }

// initDirBlock formats blk as an empty directory block: one free
// record covering everything.
func initDirBlock(blk []byte) {
	for i := range blk {
		blk[i] = 0
	}
	putU32(blk[0:], 0)
	blk[4] = byte(BlockSize & 0xff)
	blk[5] = byte(BlockSize >> 8)
}

// dirRecAt decodes and validates the fixed part of the record at off.
func dirRecAt(blk []byte, off int) (ino Inum, reclen, namelen int, ftype uint32, err error) {
	if off+dirRecFixed > BlockSize {
		return 0, 0, 0, 0, fmt.Errorf("%w: truncated directory record at %d", ErrCorrupt, off)
	}
	ino = Inum(leU32(blk[off:]))
	reclen = int(blk[off+4]) | int(blk[off+5])<<8
	namelen = int(blk[off+6])
	ftype = uint32(blk[off+7]) << 12
	if reclen < dirRecFixed || off+reclen > BlockSize || dirRecLen(namelen) > reclen {
		return 0, 0, 0, 0, fmt.Errorf("%w: bad directory record at %d (reclen %d)", ErrCorrupt, off, reclen)
	}
	return ino, reclen, namelen, ftype, nil
}

// dirForEach iterates the records of one directory block. The callback
// gets the record offset, its fields, and returns false to stop.
func dirForEach(blk []byte, fn func(off int, ino Inum, reclen int, ftype uint32, name string) bool) error {
	for off := 0; off < BlockSize; {
		ino, reclen, namelen, ftype, err := dirRecAt(blk, off)
		if err != nil {
			return err
		}
		if !fn(off, ino, reclen, ftype, string(blk[off+dirRecFixed:off+dirRecFixed+namelen])) {
			return nil
		}
		off += reclen
	}
	return nil
}

// dirFind returns the offset, inode and type of the live record called
// name in blk, or ino 0 if there is none. It compares the records'
// bytes in place, so a lookup builds no string per record it passes
// over, and hands blk to no callback, so callers' scan buffers stay on
// their stacks.
func dirFind(blk []byte, name string) (at int, found Inum, foundType uint32, err error) {
	for off := 0; off < BlockSize; {
		ino, reclen, namelen, ftype, err := dirRecAt(blk, off)
		if err != nil {
			return 0, 0, 0, err
		}
		if ino != 0 && string(blk[off+dirRecFixed:off+dirRecFixed+namelen]) == name {
			return off, ino, ftype, nil
		}
		off += reclen
	}
	return 0, 0, 0, nil
}

// dirInsertInBlock places (name → ino) in blk if space allows,
// coalescing adjacent free records as it scans. It returns ErrNoSpace
// when the block is full (the caller then tries the next block).
func dirInsertInBlock(blk []byte, name string, ino Inum, ftype uint32) error {
	need := dirRecLen(len(name))
	off := 0
	for off < BlockSize {
		recIno := Inum(leU32(blk[off:]))
		reclen := int(blk[off+4]) | int(blk[off+5])<<8
		if reclen < dirRecFixed || off+reclen > BlockSize {
			return fmt.Errorf("%w: bad directory record at %d", ErrCorrupt, off)
		}
		// Coalesce a following free record into this free record.
		if recIno == 0 {
			for off+reclen < BlockSize {
				nIno := Inum(leU32(blk[off+reclen:]))
				nLen := int(blk[off+reclen+4]) | int(blk[off+reclen+5])<<8
				if nIno != 0 || nLen < dirRecFixed || off+reclen+nLen > BlockSize {
					break
				}
				reclen += nLen
				blk[off+4] = byte(reclen)
				blk[off+5] = byte(reclen >> 8)
			}
		}
		var avail, keep int
		if recIno == 0 {
			avail, keep = reclen, 0
		} else {
			keep = dirRecLen(int(blk[off+6]))
			avail = reclen - keep
		}
		if avail >= need {
			// Shrink the current record to keep, write ours after it.
			if keep > 0 {
				blk[off+4] = byte(keep)
				blk[off+5] = byte(keep >> 8)
			}
			w := off + keep
			newLen := reclen - keep
			if keep == 0 {
				w = off
				newLen = reclen
			}
			putU32(blk[w:], uint32(ino))
			blk[w+4] = byte(newLen)
			blk[w+5] = byte(newLen >> 8)
			blk[w+6] = byte(len(name))
			blk[w+7] = byte(ftype >> 12)
			copy(blk[w+dirRecFixed:], name)
			return nil
		}
		off += reclen
	}
	return ErrNoSpace
}

// dirRemoveFromBlock deletes name from blk, returning the removed
// inode number, or (0, false) if absent.
func dirRemoveFromBlock(blk []byte, name string) (Inum, bool) {
	off, removed, _, _ := dirFind(blk, name)
	if removed == 0 {
		return 0, false
	}
	putU32(blk[off:], 0) // mark free; coalescing happens on insert
	blk[off+6] = 0
	return removed, true
}

// lookupDir finds name in directory dir of view v.
func (v *View) lookupDir(ctx context.Context, dir Inum, name string) (Inum, uint32, error) {
	ino, err := v.GetInode(ctx, dir)
	if err != nil {
		return 0, 0, err
	}
	if !IsDir(ino.Mode) {
		return 0, 0, ErrNotDir
	}
	v.fs.charge(ctx, v.fs.costs.Op)
	blocks := ino.Blocks()
	blk := make([]byte, BlockSize)
	for fbn := uint32(0); fbn < blocks; fbn++ {
		if _, err := v.readAt(ctx, dir, uint64(fbn)*BlockSize, blk); err != nil {
			return 0, 0, err
		}
		_, got, gotType, err := dirFind(blk, name)
		if err != nil {
			return 0, 0, err
		}
		if got != 0 {
			return got, gotType, nil
		}
	}
	return 0, 0, fmt.Errorf("%w: %q", ErrNotFound, name)
}

// Readdir returns the entries of directory dir (excluding free
// records), sorted by name for deterministic iteration.
func (v *View) Readdir(ctx context.Context, dir Inum) ([]DirEnt, error) {
	ino, err := v.GetInode(ctx, dir)
	if err != nil {
		return nil, err
	}
	if !IsDir(ino.Mode) {
		return nil, ErrNotDir
	}
	v.fs.charge(ctx, v.fs.costs.Op)
	var ents []DirEnt
	blocks := ino.Blocks()
	blk := make([]byte, BlockSize)
	for fbn := uint32(0); fbn < blocks; fbn++ {
		if _, err := v.readAt(ctx, dir, uint64(fbn)*BlockSize, blk); err != nil {
			return nil, err
		}
		err := dirForEach(blk, func(off int, eIno Inum, reclen int, ftype uint32, n string) bool {
			if eIno != 0 {
				ents = append(ents, DirEnt{Name: n, Ino: eIno, Type: ftype})
			}
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
	return ents, nil
}

// dirInsert adds (name → ino) to the active directory dir, growing the
// directory by one block if every existing block is full.
func (fs *FS) dirInsert(ctx context.Context, dir Inum, name string, ino Inum, ftype uint32) error {
	if len(name) > MaxNameLen {
		return ErrNameTooLong
	}
	st, err := fs.state(ctx, dir)
	if err != nil {
		return err
	}
	blocks := st.ino.Blocks()
	blk := make([]byte, BlockSize)
	for fbn := uint32(0); fbn < blocks; fbn++ {
		if _, err := fs.readAt(ctx, dir, uint64(fbn)*BlockSize, blk); err != nil {
			return err
		}
		if err := dirInsertInBlock(blk, name, ino, ftype); err == nil {
			return fs.writeAt(ctx, dir, uint64(fbn)*BlockSize, blk)
		} else if err != ErrNoSpace {
			return err
		}
	}
	initDirBlock(blk)
	if err := dirInsertInBlock(blk, name, ino, ftype); err != nil {
		return err
	}
	return fs.writeAt(ctx, dir, uint64(blocks)*BlockSize, blk)
}

// dirRemove deletes name from the active directory dir and returns the
// inode it referenced.
func (fs *FS) dirRemove(ctx context.Context, dir Inum, name string) (Inum, error) {
	st, err := fs.state(ctx, dir)
	if err != nil {
		return 0, err
	}
	blocks := st.ino.Blocks()
	blk := make([]byte, BlockSize)
	for fbn := uint32(0); fbn < blocks; fbn++ {
		if _, err := fs.readAt(ctx, dir, uint64(fbn)*BlockSize, blk); err != nil {
			return 0, err
		}
		if ino, ok := dirRemoveFromBlock(blk, name); ok {
			if err := fs.writeAt(ctx, dir, uint64(fbn)*BlockSize, blk); err != nil {
				return 0, err
			}
			return ino, nil
		}
	}
	return 0, fmt.Errorf("%w: %q", ErrNotFound, name)
}

// dirIsEmpty reports whether dir contains only "." and "..".
func (v *View) dirIsEmpty(ctx context.Context, dir Inum) (bool, error) {
	ents, err := v.Readdir(ctx, dir)
	if err != nil {
		return false, err
	}
	for _, e := range ents {
		if e.Name != "." && e.Name != ".." {
			return false, nil
		}
	}
	return true, nil
}

// SplitPath cleans and splits a slash-separated path into components,
// with "" and "/" yielding none.
func SplitPath(path string) []string {
	var out []string
	for _, c := range strings.Split(path, "/") {
		switch c {
		case "", ".":
		default:
			out = append(out, c)
		}
	}
	return out
}

// Namei resolves path (relative to the root) to an inode number,
// following intermediate symlinks up to a fixed depth. A symlink as
// the final component is returned itself (lstat-like), so callers can
// Readlink it.
func (v *View) Namei(ctx context.Context, path string) (Inum, error) {
	return v.nameiFrom(ctx, RootIno, path, 0, false)
}

// nameiFrom walks comps from dir. followLast applies when the walk is
// itself resolving an intermediate symlink's target: then even the
// target's final component must be followed, or a chain of symlinks
// through directories would stop one hop short.
func (v *View) nameiFrom(ctx context.Context, dir Inum, path string, depth int, followLast bool) (Inum, error) {
	if depth > 8 {
		return 0, ErrSymlinkLoop
	}
	cur := dir
	comps := SplitPath(path)
	for i, c := range comps {
		next, _, err := v.lookupDir(ctx, cur, c)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", strings.Join(comps[:i+1], "/"), err)
		}
		ino, err := v.GetInode(ctx, next)
		if err != nil {
			return 0, err
		}
		if IsSymlink(ino.Mode) && (i < len(comps)-1 || followLast) {
			target, err := v.Readlink(ctx, next)
			if err != nil {
				return 0, err
			}
			base := cur
			if strings.HasPrefix(target, "/") {
				base = RootIno
			}
			resolved, err := v.nameiFrom(ctx, base, target, depth+1, true)
			if err != nil {
				return 0, err
			}
			next = resolved
		}
		cur = next
	}
	return cur, nil
}

// Lookup finds name in directory dir.
func (v *View) Lookup(ctx context.Context, dir Inum, name string) (Inum, error) {
	ino, _, err := v.lookupDir(ctx, dir, name)
	return ino, err
}
