package wafl

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"
)

// Attr carries the mutable attributes for SetAttr; nil fields are left
// unchanged.
type Attr struct {
	Mode    *uint32 // permission bits only; the type cannot change
	UID     *uint32
	GID     *uint32
	Atime   *int64
	Mtime   *int64
	XMode   *uint32
	Flags   *uint32
	QtreeID *uint32
}

// Create makes a regular file name in directory parent and returns its
// inode number.
func (fs *FS) Create(ctx context.Context, parent Inum, name string, perm uint32, uid, gid uint32) (Inum, error) {
	defer fs.lock(ctx)()
	ino, err := fs.makeNode(ctx, parent, name, ModeReg|perm&ModePermMask, uid, gid, "")
	if err != nil {
		return 0, err
	}
	fs.logCreate(ctx, opCreate, parent, name, ino, ModeReg|perm&ModePermMask, uid, gid, "")
	return ino, fs.maybeCP(ctx)
}

// Mkdir makes a directory name in parent and returns its inode number.
func (fs *FS) Mkdir(ctx context.Context, parent Inum, name string, perm uint32, uid, gid uint32) (Inum, error) {
	defer fs.lock(ctx)()
	ino, err := fs.makeNode(ctx, parent, name, ModeDir|perm&ModePermMask, uid, gid, "")
	if err != nil {
		return 0, err
	}
	fs.logCreate(ctx, opMkdir, parent, name, ino, ModeDir|perm&ModePermMask, uid, gid, "")
	return ino, fs.maybeCP(ctx)
}

// Symlink makes a symbolic link name in parent pointing at target.
func (fs *FS) Symlink(ctx context.Context, parent Inum, name, target string) (Inum, error) {
	defer fs.lock(ctx)()
	ino, err := fs.makeNode(ctx, parent, name, ModeSymlink|0777, 0, 0, target)
	if err != nil {
		return 0, err
	}
	fs.logCreate(ctx, opSymlink, parent, name, ino, ModeSymlink|0777, 0, 0, target)
	return ino, fs.maybeCP(ctx)
}

// makeNode is the shared create path. For symlinks, target is stored
// as file data.
func (fs *FS) makeNode(ctx context.Context, parent Inum, name string, mode uint32, uid, gid uint32, target string) (Inum, error) {
	if err := validName(name); err != nil {
		return 0, err
	}
	fs.charge(ctx, fs.costs.Op)
	pst, err := fs.state(ctx, parent)
	if err != nil {
		return 0, err
	}
	if !IsDir(pst.ino.Mode) {
		return 0, ErrNotDir
	}
	if _, _, err := fs.ActiveView().lookupDir(ctx, parent, name); err == nil {
		return 0, fmt.Errorf("%w: %q", ErrExists, name)
	}
	ino, st, err := fs.allocInode(ctx)
	if err != nil {
		return 0, err
	}
	now := fs.now()
	st.ino.Mode = mode
	st.ino.UID = uid
	st.ino.GID = gid
	st.ino.Nlink = 1
	st.ino.Atime, st.ino.Mtime, st.ino.Ctime = now, now, now
	st.inodeDirty = true

	if IsDir(mode) {
		blk := fs.takeBuf()
		initDirBlock(blk)
		if err := dirInsertInBlock(blk, ".", ino, ModeDir); err != nil {
			return 0, err
		}
		if err := dirInsertInBlock(blk, "..", parent, ModeDir); err != nil {
			return 0, err
		}
		st.ino.Nlink = 2
		st.ino.Size = BlockSize
		fs.stage(ino, st, 0, blk)
		fs.stagedBlocks++
		pst.ino.Nlink++ // the child's ".."
		pst.inodeDirty = true
	}
	if err := fs.dirInsert(ctx, parent, name, ino, mode&ModeTypeMask); err != nil {
		return 0, err
	}
	if target != "" {
		if err := fs.writeAt(ctx, ino, 0, []byte(target)); err != nil {
			return 0, err
		}
	}
	return ino, nil
}

// Write writes data to file ino at offset off.
//
// The data-path costs — per-block CPU and the NVRAM commit — are
// billed before the filesystem lock is taken, so concurrent writers
// (parallel restore streams) overlap on the shared stations the way a
// filer's NFS operations do; only the staging of the mutation itself
// is serialized.
func (fs *FS) Write(ctx context.Context, ino Inum, off uint64, data []byte) error {
	if len(data) > 0 {
		first := off / BlockSize
		last := (off + uint64(len(data)) - 1) / BlockSize
		fs.charge(ctx, time.Duration(last-first+1)*(fs.costs.WriteBlock+fs.costs.CopyBlock))
	}
	fs.logWrite(ctx, ino, off, data)
	defer fs.lock(ctx)()
	st, err := fs.state(ctx, ino)
	if err != nil {
		return err
	}
	if IsDir(st.ino.Mode) {
		return ErrIsDir
	}
	if err := fs.writeAtQuiet(ctx, ino, off, data); err != nil {
		return err
	}
	return fs.maybeCP(ctx)
}

// Truncate sets the size of file ino to size.
func (fs *FS) Truncate(ctx context.Context, ino Inum, size uint64) error {
	defer fs.lock(ctx)()
	st, err := fs.state(ctx, ino)
	if err != nil {
		return err
	}
	if IsDir(st.ino.Mode) {
		return ErrIsDir
	}
	fs.charge(ctx, fs.costs.Op)
	if err := fs.truncateTo(ctx, ino, size); err != nil {
		return err
	}
	fs.logTruncate(ctx, ino, size)
	return fs.maybeCP(ctx)
}

// Remove deletes the non-directory entry name from parent.
func (fs *FS) Remove(ctx context.Context, parent Inum, name string) error {
	defer fs.lock(ctx)()
	fs.charge(ctx, fs.costs.Op)
	ino, _, err := fs.ActiveView().lookupNamed(ctx, parent, name)
	if err != nil {
		return err
	}
	st, err := fs.state(ctx, ino)
	if err != nil {
		return err
	}
	if IsDir(st.ino.Mode) {
		return ErrIsDir
	}
	if _, err := fs.dirRemove(ctx, parent, name); err != nil {
		return err
	}
	st.ino.Nlink--
	st.ino.Ctime = fs.now()
	st.inodeDirty = true
	if st.ino.Nlink == 0 {
		if err := fs.freeInode(ctx, ino); err != nil {
			return err
		}
	}
	fs.logNameOp(ctx, opRemove, parent, name)
	return fs.maybeCP(ctx)
}

// Rmdir deletes the empty directory name from parent.
func (fs *FS) Rmdir(ctx context.Context, parent Inum, name string) error {
	defer fs.lock(ctx)()
	fs.charge(ctx, fs.costs.Op)
	if name == "." || name == ".." {
		return fmt.Errorf("%w: cannot remove %q", ErrExists, name)
	}
	ino, _, err := fs.ActiveView().lookupNamed(ctx, parent, name)
	if err != nil {
		return err
	}
	st, err := fs.state(ctx, ino)
	if err != nil {
		return err
	}
	if !IsDir(st.ino.Mode) {
		return ErrNotDir
	}
	empty, err := fs.ActiveView().dirIsEmpty(ctx, ino)
	if err != nil {
		return err
	}
	if !empty {
		return ErrNotEmpty
	}
	if _, err := fs.dirRemove(ctx, parent, name); err != nil {
		return err
	}
	if err := fs.freeInode(ctx, ino); err != nil {
		return err
	}
	pst, err := fs.state(ctx, parent)
	if err != nil {
		return err
	}
	pst.ino.Nlink-- // the child's ".." is gone
	pst.ino.Mtime = fs.now()
	pst.inodeDirty = true
	fs.logNameOp(ctx, opRmdir, parent, name)
	return fs.maybeCP(ctx)
}

// Link makes a hard link to file ino as name in directory parent.
func (fs *FS) Link(ctx context.Context, ino, parent Inum, name string) error {
	defer fs.lock(ctx)()
	if err := validName(name); err != nil {
		return err
	}
	fs.charge(ctx, fs.costs.Op)
	st, err := fs.state(ctx, ino)
	if err != nil {
		return err
	}
	if !st.ino.Allocated() {
		return ErrBadInode
	}
	if IsDir(st.ino.Mode) {
		return ErrIsDir
	}
	if _, _, err := fs.ActiveView().lookupDir(ctx, parent, name); err == nil {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	if err := fs.dirInsert(ctx, parent, name, ino, st.ino.Mode&ModeTypeMask); err != nil {
		return err
	}
	st.ino.Nlink++
	st.ino.Ctime = fs.now()
	st.inodeDirty = true
	fs.logLink(ctx, ino, parent, name)
	return fs.maybeCP(ctx)
}

// Rename moves srcName in srcDir to dstName in dstDir, replacing a
// non-directory destination if present.
func (fs *FS) Rename(ctx context.Context, srcDir Inum, srcName string, dstDir Inum, dstName string) error {
	defer fs.lock(ctx)()
	if err := validName(dstName); err != nil {
		return err
	}
	fs.charge(ctx, fs.costs.Op)
	ino, ftype, err := fs.ActiveView().lookupNamed(ctx, srcDir, srcName)
	if err != nil {
		return err
	}
	// Replace an existing destination.
	if old, _, err := fs.ActiveView().lookupDir(ctx, dstDir, dstName); err == nil {
		if old == ino {
			return nil
		}
		ost, err := fs.state(ctx, old)
		if err != nil {
			return err
		}
		if IsDir(ost.ino.Mode) {
			return ErrIsDir
		}
		if err := fs.Remove(ctx, dstDir, dstName); err != nil {
			return err
		}
	}
	if _, err := fs.dirRemove(ctx, srcDir, srcName); err != nil {
		return err
	}
	if err := fs.dirInsert(ctx, dstDir, dstName, ino, ftype); err != nil {
		return err
	}
	// Bump the moved inode's ctime (Linux semantics). Incremental dump
	// depends on this: a renamed file must look changed so the next
	// incremental carries it under its new name.
	mst, err := fs.state(ctx, ino)
	if err != nil {
		return err
	}
	mst.ino.Ctime = fs.now()
	mst.inodeDirty = true
	// Moving a directory across parents rewires "..".
	if ftype == ModeDir && srcDir != dstDir {
		st, err := fs.state(ctx, ino)
		if err != nil {
			return err
		}
		blk := make([]byte, BlockSize)
		if _, err := fs.readAt(ctx, ino, 0, blk); err != nil {
			return err
		}
		dirRemoveFromBlock(blk, "..")
		if err := dirInsertInBlock(blk, "..", dstDir, ModeDir); err != nil {
			return err
		}
		if err := fs.writeAt(ctx, ino, 0, blk); err != nil {
			return err
		}
		sst, err := fs.state(ctx, srcDir)
		if err != nil {
			return err
		}
		sst.ino.Nlink--
		sst.inodeDirty = true
		dst, err := fs.state(ctx, dstDir)
		if err != nil {
			return err
		}
		dst.ino.Nlink++
		dst.inodeDirty = true
		_ = st
	}
	fs.logRename(ctx, srcDir, srcName, dstDir, dstName)
	return fs.maybeCP(ctx)
}

// SetAttr updates attributes of ino.
func (fs *FS) SetAttr(ctx context.Context, ino Inum, attr Attr) error {
	defer fs.lock(ctx)()
	fs.charge(ctx, fs.costs.Op)
	st, err := fs.state(ctx, ino)
	if err != nil {
		return err
	}
	if !st.ino.Allocated() {
		return ErrBadInode
	}
	applyAttr(&st.ino, attr)
	st.ino.Ctime = fs.now()
	st.inodeDirty = true
	fs.logSetAttr(ctx, ino, attr)
	return fs.maybeCP(ctx)
}

func applyAttr(ino *Inode, attr Attr) {
	if attr.Mode != nil {
		ino.Mode = ino.Mode&ModeTypeMask | *attr.Mode&ModePermMask
	}
	if attr.UID != nil {
		ino.UID = *attr.UID
	}
	if attr.GID != nil {
		ino.GID = *attr.GID
	}
	if attr.Atime != nil {
		ino.Atime = *attr.Atime
	}
	if attr.Mtime != nil {
		ino.Mtime = *attr.Mtime
	}
	if attr.XMode != nil {
		ino.XMode = *attr.XMode
	}
	if attr.Flags != nil {
		ino.Flags = *attr.Flags
	}
	if attr.QtreeID != nil {
		ino.QtreeID = *attr.QtreeID
	}
}

// SetQtreeRoot marks directory ino as the root of quota tree id.
func (fs *FS) SetQtreeRoot(ctx context.Context, ino Inum, id uint32) error {
	flags := FlagQtreeRoot
	return fs.SetAttr(ctx, ino, Attr{Flags: &flags, QtreeID: &id})
}

func validName(name string) error {
	if name == "" || name == "." || name == ".." {
		return fmt.Errorf("%w: invalid name %q", ErrExists, name)
	}
	if len(name) > MaxNameLen {
		return ErrNameTooLong
	}
	if strings.ContainsRune(name, '/') {
		return fmt.Errorf("wafl: name %q contains '/'", name)
	}
	return nil
}

// --- Path-based conveniences, used by examples and the workload
// generator. Paths are slash-separated from the root.

// MkdirAll creates every missing directory along path and returns the
// final directory's inode.
func (fs *FS) MkdirAll(ctx context.Context, path string, perm uint32) (Inum, error) {
	cur := RootIno
	for _, c := range SplitPath(path) {
		next, _, err := fs.ActiveView().lookupDir(ctx, cur, c)
		switch {
		case err == nil:
			ino, err := fs.GetInode(ctx, next)
			if err != nil {
				return 0, err
			}
			if !IsDir(ino.Mode) {
				return 0, ErrNotDir
			}
			cur = next
		case errors.Is(err, ErrNotFound):
			next, err = fs.Mkdir(ctx, cur, c, perm, 0, 0)
			if err != nil {
				return 0, err
			}
			cur = next
		default:
			return 0, err
		}
	}
	return cur, nil
}

// WriteFile creates (or truncates) the file at path with data.
func (fs *FS) WriteFile(ctx context.Context, path string, data []byte, perm uint32) (Inum, error) {
	comps := SplitPath(path)
	if len(comps) == 0 {
		return 0, ErrIsDir
	}
	dir, err := fs.MkdirAll(ctx, strings.Join(comps[:len(comps)-1], "/"), 0755)
	if err != nil {
		return 0, err
	}
	name := comps[len(comps)-1]
	ino, _, err := fs.ActiveView().lookupDir(ctx, dir, name)
	if err != nil {
		ino, err = fs.Create(ctx, dir, name, perm, 0, 0)
		if err != nil {
			return 0, err
		}
	} else if err := fs.Truncate(ctx, ino, 0); err != nil {
		return 0, err
	}
	if len(data) > 0 {
		if err := fs.Write(ctx, ino, 0, data); err != nil {
			return 0, err
		}
	}
	return ino, nil
}

// RemovePath removes the file or empty directory at path.
func (fs *FS) RemovePath(ctx context.Context, path string) error {
	comps := SplitPath(path)
	if len(comps) == 0 {
		return ErrIsDir
	}
	dir, err := fs.ActiveView().Namei(ctx, strings.Join(comps[:len(comps)-1], "/"))
	if err != nil {
		return err
	}
	name := comps[len(comps)-1]
	ino, _, err := fs.ActiveView().lookupNamed(ctx, dir, name)
	if err != nil {
		return err
	}
	inode, err := fs.GetInode(ctx, ino)
	if err != nil {
		return err
	}
	if IsDir(inode.Mode) {
		return fs.Rmdir(ctx, dir, name)
	}
	return fs.Remove(ctx, dir, name)
}
