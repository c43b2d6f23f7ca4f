package wafl

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/codec"
)

// NVRAM log records. Each mutating operation is serialized (including
// the inode number it was assigned, so replay can verify determinism)
// and appended to the NVRAM log before the operation returns. After a
// crash, Mount replays the surviving entries against the state of the
// last consistency point — the paper's §2.2 recovery path.

type opcode byte

const (
	opCreate opcode = iota + 1
	opMkdir
	opSymlink
	opWrite
	opTruncate
	opRemove
	opRmdir
	opLink
	opRename
	opSetAttr
)

// logFixedMax bounds the fixed-width part of any entry: the opcode and
// the integers around its names (a SetAttr with every attribute present
// is the longest, at 49 bytes).
const logFixedMax = 64

// logWriteHead is the fixed part of a write's entry: the opcode, the
// inode, the offset and the data's length, which the data follows.
const logWriteHead = 1 + 4 + 8 + 4

// logEntry starts the entry for an operation whose names take n bytes,
// with room for all of it up front, in the filesystem's one scratch
// encoder (FS.enc). A write's data is not encoded: logAppend hands it
// to NVRAM beside the scratch, and nvram.Log.Record copies both parts
// once, so the scratch is free again as soon as the entry is recorded.
// It returns nil when the operation is not to be logged — no NVRAM,
// logging off, or the log being replayed — so that nothing is encoded
// for a log that will not take it. Entries use the codec's layout:
// little-endian integers, u32-length-prefixed names and data.
func (fs *FS) logEntry(op opcode, n int) *codec.Enc {
	if fs.log == nil || fs.replaying || fs.noLog {
		return nil
	}
	e := &fs.enc
	e.B = append(slices.Grow(e.B[:0], logFixedMax+n), byte(op))
	return e
}

// logAppend records an entry, e's bytes followed by data, in NVRAM and
// pays for its commit: at once, or — when the caller holds the
// filesystem lock, so that the entry lands in the order the operations
// were staged — when the lock is released (see lock).
func (fs *FS) logAppend(ctx context.Context, e *codec.Enc, data []byte) {
	// Record never legitimately fails here: every operation ends with
	// maybeCP, which keeps the log below its high-water mark, and Write
	// logs a write larger than half the log in pieces (writePieceMax).
	// A failure indicates a sizing bug.
	svc, err := fs.log.Record(e.B, data)
	if err != nil {
		panic(fmt.Sprintf("wafl: NVRAM append failed: %v", err))
	}
	if fs.holds(ctx) {
		fs.owedCommit += svc
		return
	}
	fs.log.Commit(ctx, svc)
}

func (fs *FS) logCreate(ctx context.Context, op opcode, parent Inum, name string, ino Inum, mode, uid, gid uint32, target string) {
	if e := fs.logEntry(op, len(name)+len(target)); e != nil {
		e.U32(uint32(parent))
		e.Str(name)
		e.U32(uint32(ino))
		e.U32(mode)
		e.U32(uid)
		e.U32(gid)
		e.Str(target)
		fs.logAppend(ctx, e, nil)
	}
}

func (fs *FS) logWrite(ctx context.Context, ino Inum, off uint64, data []byte) {
	if e := fs.logEntry(opWrite, 0); e != nil {
		e.U32(uint32(ino))
		e.U64(off)
		e.U32(uint32(len(data)))
		fs.logAppend(ctx, e, data)
	}
}

func (fs *FS) logTruncate(ctx context.Context, ino Inum, size uint64) {
	if e := fs.logEntry(opTruncate, 0); e != nil {
		e.U32(uint32(ino))
		e.U64(size)
		fs.logAppend(ctx, e, nil)
	}
}

func (fs *FS) logNameOp(ctx context.Context, op opcode, parent Inum, name string) {
	if e := fs.logEntry(op, len(name)); e != nil {
		e.U32(uint32(parent))
		e.Str(name)
		fs.logAppend(ctx, e, nil)
	}
}

func (fs *FS) logLink(ctx context.Context, ino, parent Inum, name string) {
	if e := fs.logEntry(opLink, len(name)); e != nil {
		e.U32(uint32(ino))
		e.U32(uint32(parent))
		e.Str(name)
		fs.logAppend(ctx, e, nil)
	}
}

func (fs *FS) logRename(ctx context.Context, srcDir Inum, srcName string, dstDir Inum, dstName string) {
	if e := fs.logEntry(opRename, len(srcName)+len(dstName)); e != nil {
		e.U32(uint32(srcDir))
		e.Str(srcName)
		e.U32(uint32(dstDir))
		e.Str(dstName)
		fs.logAppend(ctx, e, nil)
	}
}

// attr serialization: a presence bitmask followed by present fields.
const (
	attrHasMode = 1 << iota
	attrHasUID
	attrHasGID
	attrHasAtime
	attrHasMtime
	attrHasXMode
	attrHasFlags
	attrHasQtree
)

func encodeAttr(e *codec.Enc, a Attr) {
	var mask uint32
	if a.Mode != nil {
		mask |= attrHasMode
	}
	if a.UID != nil {
		mask |= attrHasUID
	}
	if a.GID != nil {
		mask |= attrHasGID
	}
	if a.Atime != nil {
		mask |= attrHasAtime
	}
	if a.Mtime != nil {
		mask |= attrHasMtime
	}
	if a.XMode != nil {
		mask |= attrHasXMode
	}
	if a.Flags != nil {
		mask |= attrHasFlags
	}
	if a.QtreeID != nil {
		mask |= attrHasQtree
	}
	e.U32(mask)
	if a.Mode != nil {
		e.U32(*a.Mode)
	}
	if a.UID != nil {
		e.U32(*a.UID)
	}
	if a.GID != nil {
		e.U32(*a.GID)
	}
	if a.Atime != nil {
		e.U64(uint64(*a.Atime))
	}
	if a.Mtime != nil {
		e.U64(uint64(*a.Mtime))
	}
	if a.XMode != nil {
		e.U32(*a.XMode)
	}
	if a.Flags != nil {
		e.U32(*a.Flags)
	}
	if a.QtreeID != nil {
		e.U32(*a.QtreeID)
	}
}

func decodeAttr(d *codec.Dec) Attr {
	var a Attr
	mask := d.U32()
	if mask&attrHasMode != 0 {
		v := d.U32()
		a.Mode = &v
	}
	if mask&attrHasUID != 0 {
		v := d.U32()
		a.UID = &v
	}
	if mask&attrHasGID != 0 {
		v := d.U32()
		a.GID = &v
	}
	if mask&attrHasAtime != 0 {
		v := int64(d.U64())
		a.Atime = &v
	}
	if mask&attrHasMtime != 0 {
		v := int64(d.U64())
		a.Mtime = &v
	}
	if mask&attrHasXMode != 0 {
		v := d.U32()
		a.XMode = &v
	}
	if mask&attrHasFlags != 0 {
		v := d.U32()
		a.Flags = &v
	}
	if mask&attrHasQtree != 0 {
		v := d.U32()
		a.QtreeID = &v
	}
	return a
}

func (fs *FS) logSetAttr(ctx context.Context, ino Inum, a Attr) {
	if e := fs.logEntry(opSetAttr, 0); e != nil {
		e.U32(uint32(ino))
		encodeAttr(e, a)
		fs.logAppend(ctx, e, nil)
	}
}

// replay re-executes logged operations against the mounted state. The
// inode numbers recorded at log time must match the ones assigned
// during replay; a mismatch means the log does not belong to this
// filesystem state.
func (fs *FS) replay(ctx context.Context, entries [][]byte) error {
	for i, raw := range entries {
		if len(raw) == 0 {
			return fmt.Errorf("%w: empty log entry %d", ErrCorrupt, i)
		}
		d := &codec.Dec{B: raw[1:], Max: len(raw), Bad: ErrCorrupt}
		op := opcode(raw[0])
		var err error
		switch op {
		case opCreate, opMkdir, opSymlink:
			parent := Inum(d.U32())
			name := d.Str()
			wantIno := Inum(d.U32())
			mode := d.U32()
			uid := d.U32()
			gid := d.U32()
			target := d.Str()
			if err := d.Err(); err != nil {
				return err
			}
			var got Inum
			got, err = fs.makeNode(ctx, parent, name, mode, uid, gid, target)
			if err == nil && got != wantIno {
				return fmt.Errorf("%w: replay of %q assigned inode %d, log says %d",
					ErrCrossed, name, got, wantIno)
			}
		case opWrite:
			ino := Inum(d.U32())
			off := d.U64()
			data := d.Bytes()
			if err := d.Err(); err != nil {
				return err
			}
			err = fs.writeAt(ctx, ino, off, data)
			// Writes are logged before validation (see FS.Write); an
			// operation that failed ENOSPC originally fails the same
			// way here and is skipped, reproducing the outcome.
			if errors.Is(err, ErrNoSpace) || errors.Is(err, ErrFileTooBig) {
				err = nil
			}
		case opTruncate:
			ino := Inum(d.U32())
			size := d.U64()
			if err := d.Err(); err != nil {
				return err
			}
			err = fs.truncateTo(ctx, ino, size)
		case opRemove:
			parent := Inum(d.U32())
			name := d.Str()
			if err := d.Err(); err != nil {
				return err
			}
			err = fs.Remove(ctx, parent, name)
		case opRmdir:
			parent := Inum(d.U32())
			name := d.Str()
			if err := d.Err(); err != nil {
				return err
			}
			err = fs.Rmdir(ctx, parent, name)
		case opLink:
			ino := Inum(d.U32())
			parent := Inum(d.U32())
			name := d.Str()
			if err := d.Err(); err != nil {
				return err
			}
			err = fs.Link(ctx, ino, parent, name)
		case opRename:
			srcDir := Inum(d.U32())
			srcName := d.Str()
			dstDir := Inum(d.U32())
			dstName := d.Str()
			if err := d.Err(); err != nil {
				return err
			}
			err = fs.Rename(ctx, srcDir, srcName, dstDir, dstName)
		case opSetAttr:
			ino := Inum(d.U32())
			attr := decodeAttr(d)
			if err := d.Err(); err != nil {
				return err
			}
			err = fs.SetAttr(ctx, ino, attr)
		default:
			return fmt.Errorf("%w: unknown log opcode %d", ErrCorrupt, op)
		}
		if err != nil {
			return fmt.Errorf("wafl: replaying entry %d (op %d): %w", i, op, err)
		}
	}
	return nil
}
