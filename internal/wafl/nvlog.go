package wafl

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
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

// logEnc builds one log entry in the filesystem's one scratch buffer
// (FS.enc): nvram.Log.Record copies what it is given, so the buffer is
// free again as soon as the entry is recorded.
type logEnc struct{ buf []byte }

// logFixedMax bounds the fixed-width part of any entry: the opcode and
// the integers around its names and data (a SetAttr with every
// attribute present is the longest, at 49 bytes).
const logFixedMax = 64

// logEntry starts the entry for an operation whose names and data take
// n bytes, with room for all of it up front. It returns nil when the
// operation is not to be logged — no NVRAM, logging off, or the log
// being replayed — so that nothing is encoded for a log that will not
// take it.
func (fs *FS) logEntry(op opcode, n int) *logEnc {
	if fs.log == nil || fs.replaying || fs.noLog {
		return nil
	}
	e := &fs.enc
	e.buf = append(slices.Grow(e.buf[:0], logFixedMax+n), byte(op))
	return e
}

func (e *logEnc) u32(v uint32) *logEnc {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	e.buf = append(e.buf, b[:]...)
	return e
}
func (e *logEnc) u64(v uint64) *logEnc {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
	return e
}
func (e *logEnc) str(s string) *logEnc { e.u32(uint32(len(s))); e.buf = append(e.buf, s...); return e }
func (e *logEnc) bytes(b []byte) *logEnc {
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
	return e
}

// logDec parses one log entry.
type logDec struct {
	buf []byte
	off int
	err error
}

func (d *logDec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.err = fmt.Errorf("%w: truncated log entry", ErrCorrupt)
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *logDec) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.err = fmt.Errorf("%w: truncated log entry", ErrCorrupt)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *logDec) str() string { return string(d.bytes()) }

func (d *logDec) bytes() []byte {
	n := int(d.u32())
	if d.err != nil || d.off+n > len(d.buf) {
		d.err = fmt.Errorf("%w: truncated log entry", ErrCorrupt)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// logAppend records an entry in NVRAM and pays for its commit: at once,
// or — when the caller holds the filesystem lock, so that the entry
// lands in the order the operations were staged — when the lock is
// released (see lock).
func (fs *FS) logAppend(ctx context.Context, e *logEnc) {
	// Record never legitimately fails here: maybeCP keeps the log
	// below capacity. A failure indicates a sizing bug.
	svc, err := fs.log.Record(e.buf)
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
		fs.logAppend(ctx, e.u32(uint32(parent)).str(name).u32(uint32(ino)).u32(mode).u32(uid).u32(gid).str(target))
	}
}

func (fs *FS) logWrite(ctx context.Context, ino Inum, off uint64, data []byte) {
	if e := fs.logEntry(opWrite, len(data)); e != nil {
		fs.logAppend(ctx, e.u32(uint32(ino)).u64(off).bytes(data))
	}
}

func (fs *FS) logTruncate(ctx context.Context, ino Inum, size uint64) {
	if e := fs.logEntry(opTruncate, 0); e != nil {
		fs.logAppend(ctx, e.u32(uint32(ino)).u64(size))
	}
}

func (fs *FS) logNameOp(ctx context.Context, op opcode, parent Inum, name string) {
	if e := fs.logEntry(op, len(name)); e != nil {
		fs.logAppend(ctx, e.u32(uint32(parent)).str(name))
	}
}

func (fs *FS) logLink(ctx context.Context, ino, parent Inum, name string) {
	if e := fs.logEntry(opLink, len(name)); e != nil {
		fs.logAppend(ctx, e.u32(uint32(ino)).u32(uint32(parent)).str(name))
	}
}

func (fs *FS) logRename(ctx context.Context, srcDir Inum, srcName string, dstDir Inum, dstName string) {
	if e := fs.logEntry(opRename, len(srcName)+len(dstName)); e != nil {
		fs.logAppend(ctx, e.u32(uint32(srcDir)).str(srcName).u32(uint32(dstDir)).str(dstName))
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

func encodeAttr(e *logEnc, a Attr) {
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
	e.u32(mask)
	if a.Mode != nil {
		e.u32(*a.Mode)
	}
	if a.UID != nil {
		e.u32(*a.UID)
	}
	if a.GID != nil {
		e.u32(*a.GID)
	}
	if a.Atime != nil {
		e.u64(uint64(*a.Atime))
	}
	if a.Mtime != nil {
		e.u64(uint64(*a.Mtime))
	}
	if a.XMode != nil {
		e.u32(*a.XMode)
	}
	if a.Flags != nil {
		e.u32(*a.Flags)
	}
	if a.QtreeID != nil {
		e.u32(*a.QtreeID)
	}
}

func decodeAttr(d *logDec) Attr {
	var a Attr
	mask := d.u32()
	if mask&attrHasMode != 0 {
		v := d.u32()
		a.Mode = &v
	}
	if mask&attrHasUID != 0 {
		v := d.u32()
		a.UID = &v
	}
	if mask&attrHasGID != 0 {
		v := d.u32()
		a.GID = &v
	}
	if mask&attrHasAtime != 0 {
		v := int64(d.u64())
		a.Atime = &v
	}
	if mask&attrHasMtime != 0 {
		v := int64(d.u64())
		a.Mtime = &v
	}
	if mask&attrHasXMode != 0 {
		v := d.u32()
		a.XMode = &v
	}
	if mask&attrHasFlags != 0 {
		v := d.u32()
		a.Flags = &v
	}
	if mask&attrHasQtree != 0 {
		v := d.u32()
		a.QtreeID = &v
	}
	return a
}

func (fs *FS) logSetAttr(ctx context.Context, ino Inum, a Attr) {
	if e := fs.logEntry(opSetAttr, 0); e != nil {
		encodeAttr(e.u32(uint32(ino)), a)
		fs.logAppend(ctx, e)
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
		d := &logDec{buf: raw, off: 1}
		op := opcode(raw[0])
		var err error
		switch op {
		case opCreate, opMkdir, opSymlink:
			parent := Inum(d.u32())
			name := d.str()
			wantIno := Inum(d.u32())
			mode := d.u32()
			uid := d.u32()
			gid := d.u32()
			target := d.str()
			if d.err != nil {
				return d.err
			}
			var got Inum
			got, err = fs.makeNode(ctx, parent, name, mode, uid, gid, target)
			if err == nil && got != wantIno {
				return fmt.Errorf("%w: replay of %q assigned inode %d, log says %d",
					ErrCrossed, name, got, wantIno)
			}
		case opWrite:
			ino := Inum(d.u32())
			off := d.u64()
			data := d.bytes()
			if d.err != nil {
				return d.err
			}
			err = fs.writeAt(ctx, ino, off, data)
			// Writes are logged before validation (see FS.Write); an
			// operation that failed ENOSPC originally fails the same
			// way here and is skipped, reproducing the outcome.
			if errors.Is(err, ErrNoSpace) || errors.Is(err, ErrFileTooBig) {
				err = nil
			}
		case opTruncate:
			ino := Inum(d.u32())
			size := d.u64()
			if d.err != nil {
				return d.err
			}
			err = fs.truncateTo(ctx, ino, size)
		case opRemove:
			parent := Inum(d.u32())
			name := d.str()
			if d.err != nil {
				return d.err
			}
			err = fs.Remove(ctx, parent, name)
		case opRmdir:
			parent := Inum(d.u32())
			name := d.str()
			if d.err != nil {
				return d.err
			}
			err = fs.Rmdir(ctx, parent, name)
		case opLink:
			ino := Inum(d.u32())
			parent := Inum(d.u32())
			name := d.str()
			if d.err != nil {
				return d.err
			}
			err = fs.Link(ctx, ino, parent, name)
		case opRename:
			srcDir := Inum(d.u32())
			srcName := d.str()
			dstDir := Inum(d.u32())
			dstName := d.str()
			if d.err != nil {
				return d.err
			}
			err = fs.Rename(ctx, srcDir, srcName, dstDir, dstName)
		case opSetAttr:
			ino := Inum(d.u32())
			attr := decodeAttr(d)
			if d.err != nil {
				return d.err
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
