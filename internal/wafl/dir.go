package wafl

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"unsafe"
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

// DirEnt is one directory entry as returned by Readdir and Listing.Fill.
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

// openDir returns how many blocks directory dir spans in view v,
// charging the one operation a pass over a directory costs.
func (v *View) openDir(ctx context.Context, dir Inum) (uint32, error) {
	ino, err := v.GetInode(ctx, dir)
	if err != nil {
		return 0, err
	}
	if !IsDir(ino.Mode) {
		return 0, ErrNotDir
	}
	v.fs.charge(ctx, v.fs.costs.Op)
	return ino.Blocks(), nil
}

// lookupDir finds name in directory dir of view v.
func (v *View) lookupDir(ctx context.Context, dir Inum, name string) (Inum, uint32, error) {
	blocks, err := v.openDir(ctx, dir)
	if err != nil {
		return 0, 0, err
	}
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
	return 0, 0, ErrNotFound
}

// lookupNamed is lookupDir for the exported entry points that report a miss:
// the error names the missing component. lookupDir's own miss is the
// bare sentinel, so the lookups that expect one (every create checks the
// name is free) format nothing.
func (v *View) lookupNamed(ctx context.Context, dir Inum, name string) (Inum, uint32, error) {
	ino, ftype, err := v.lookupDir(ctx, dir, name)
	if err == ErrNotFound {
		err = fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return ino, ftype, err
}

// Readdir returns the entries of directory dir (excluding free
// records), sorted by name for deterministic iteration. They are a fresh
// Listing's, which nothing refills, so the caller may keep them.
func (v *View) Readdir(ctx context.Context, dir Inum) ([]DirEnt, error) {
	var l Listing
	return l.Fill(ctx, v, dir)
}

// Listing is the lending form of Readdir: a listing its caller keeps and
// refills, directory after directory, which keeps its entries and name
// bytes across fills, so that once it has held the largest directory a
// fill allocates nothing. What Fill returns is lent: the entries and
// their names are valid until the next Fill. That one first scribbles
// over the name bytes it lent last — always, not only in tests — and
// lists into the other of two name buffers, as the dump reader decodes
// into the other of two headers, so a caller that keeps a name past it
// reads poison rather than, silently, a name of the next directory. A
// caller that needs a name longer clones it (strings.Clone), and a map
// keyed by lent names is cleared before the refill. A caller that lists
// another directory while it still iterates one uses a second Listing.
type Listing struct {
	ents  []DirEnt
	names [2][]byte // every entry's name, back to back in record order
	lent  int       // names[lent] holds the names Fill returned last
	blk   []byte    // the directory block being scanned
}

// listingPoison is what Fill scribbles over the names it lent last.
const listingPoison = 0xA5

// Fill lists directory dir of view v into l, as Readdir does: one
// operation charged, every block read in order, the entries sorted by
// name.
func (l *Listing) Fill(ctx context.Context, v *View, dir Inum) ([]DirEnt, error) {
	for i := range l.names[l.lent] {
		l.names[l.lent][i] = listingPoison
	}
	l.lent = 1 - l.lent
	l.ents, l.names[l.lent] = l.ents[:0], l.names[l.lent][:0]
	blocks, err := v.openDir(ctx, dir)
	if err != nil {
		return nil, err
	}
	if l.blk == nil {
		l.blk = make([]byte, BlockSize)
	}
	for fbn := uint32(0); fbn < blocks; fbn++ {
		if _, err := v.readAt(ctx, dir, uint64(fbn)*BlockSize, l.blk); err != nil {
			return nil, err
		}
		if err := l.appendBlock(l.blk); err != nil {
			return nil, err
		}
	}
	// A name aliases the bytes its buffer had when it was appended; the
	// buffer has stopped growing now, so point every one at its final
	// bytes, the ones the next Fill poisons.
	names := l.names[l.lent]
	all := unsafe.String(unsafe.SliceData(names), len(names))
	off := 0
	for i := range l.ents {
		n := len(l.ents[i].Name)
		l.ents[i].Name = all[off : off+n]
		off += n
	}
	slices.SortFunc(l.ents, func(a, b DirEnt) int { return strings.Compare(a.Name, b.Name) })
	return l.ents, nil
}

// appendBlock appends the live records of one directory block to the
// listing, checking the whole block before it takes any of them. A free
// record costs nothing.
func (l *Listing) appendBlock(blk []byte) error {
	live, nameBytes := 0, 0
	for off := 0; off < BlockSize; {
		ino, reclen, namelen, _, err := dirRecAt(blk, off)
		if err != nil {
			return err
		}
		if ino != 0 {
			live++
			nameBytes += namelen
		}
		off += reclen
	}
	l.ents = slices.Grow(l.ents, live)
	names := slices.Grow(l.names[l.lent], nameBytes)
	for off := 0; off < BlockSize; {
		ino, reclen, namelen, ftype, _ := dirRecAt(blk, off)
		if ino != 0 {
			at := len(names)
			names = append(names, blk[off+dirRecFixed:off+dirRecFixed+namelen]...)
			name := names[at:]
			l.ents = append(l.ents, DirEnt{Name: unsafe.String(unsafe.SliceData(name), len(name)), Ino: ino, Type: ftype})
		}
		off += reclen
	}
	l.names[l.lent] = names
	return nil
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

// dirIsEmpty reports whether dir contains only "." and "..". It scans
// the records in place, as dirFind does, and reads every block as a
// listing would, whatever the first one holds.
func (v *View) dirIsEmpty(ctx context.Context, dir Inum) (bool, error) {
	blocks, err := v.openDir(ctx, dir)
	if err != nil {
		return false, err
	}
	empty := true
	blk := make([]byte, BlockSize)
	for fbn := uint32(0); fbn < blocks; fbn++ {
		if _, err := v.readAt(ctx, dir, uint64(fbn)*BlockSize, blk); err != nil {
			return false, err
		}
		for off := 0; off < BlockSize; {
			ino, reclen, namelen, _, err := dirRecAt(blk, off)
			if err != nil {
				return false, err
			}
			if name := string(blk[off+dirRecFixed : off+dirRecFixed+namelen]); ino != 0 && name != "." && name != ".." {
				empty = false
			}
			off += reclen
		}
	}
	return empty, nil
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
		next, _, err := v.lookupNamed(ctx, cur, c)
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
	ino, _, err := v.lookupNamed(ctx, dir, name)
	return ino, err
}
