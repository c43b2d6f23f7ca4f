package logical

import (
	"bytes"
	"context"
	"fmt"
	"path"

	"repro/internal/dumpfmt"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/wafl"
)

// Verification: the paper's introduction is blunt about why this
// matters — "horror stories abound concerning system administrators
// attempting to restore file systems after a disaster occurs, only to
// discover that all the backup tapes made in the last year are not
// readable." Verify reads a dump stream end to end and compares it
// against a live view without writing anything, so a nightly dump can
// be checked while it is still cheap to re-run.

// VerifyResult reports a verification pass.
type VerifyResult struct {
	FilesChecked int
	DirsChecked  int
	BytesRead    int64
	// Problems lists mismatches between tape and filesystem; empty
	// means the dump faithfully captures the view.
	Problems []string
	// SkippedUnits counts corrupt 1 KB units the reader resynced over.
	SkippedUnits int
}

// VerifyOptions configures a verification pass.
type VerifyOptions struct {
	// View is the filesystem state the dump is expected to match —
	// normally the snapshot the dump was taken from.
	View *wafl.View
	// Source supplies the dump stream.
	Source stream.Source
	// Subtree is the dump root used at dump time ("" = whole fs).
	Subtree string
}

// Verify checks a dump stream against a filesystem view.
func Verify(ctx context.Context, opts VerifyOptions) (*VerifyResult, error) {
	if opts.View == nil || opts.Source == nil {
		return nil, fmt.Errorf("logical: nil view or source")
	}
	ctx, span := obs.Start(ctx, "logical.verify")
	defer span.End()
	r := dumpfmt.NewReader(opts.Source)
	res := &VerifyResult{}
	addf := res.addf

	stats := &RestoreStats{}
	des, pending, err := readDirectories(r, stats)
	if err != nil {
		return nil, err
	}
	res.BytesRead += stats.BytesRead

	// Check the directory image: every tape entry must exist in the
	// view with the same type, and vice versa.
	rootIno := des.rootIno
	fsRoot := wafl.RootIno
	if opts.Subtree != "" {
		fsRoot, err = opts.View.Namei(ctx, opts.Subtree)
		if err != nil {
			return nil, fmt.Errorf("logical: verify subtree %q: %w", opts.Subtree, err)
		}
	}
	inoMap := map[wafl.Inum]wafl.Inum{rootIno: fsRoot} // tape ino → fs ino
	queue := []wafl.Inum{rootIno}
	seen := map[wafl.Inum]bool{}
	locs := map[wafl.Inum]location{}
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		if seen[d] {
			continue
		}
		seen[d] = true
		ents, onTape := des.ents[d]
		if !onTape {
			continue
		}
		res.DirsChecked++
		fsDir, ok := inoMap[d]
		if !ok {
			continue
		}
		fsEnts, err := opts.View.Readdir(ctx, fsDir)
		if err != nil {
			addf("dir (tape ino %d): cannot read filesystem dir: %v", d, err)
			continue
		}
		fsByName := make(map[string]wafl.DirEnt, len(fsEnts))
		for _, e := range fsEnts {
			if e.Name != "." && e.Name != ".." {
				fsByName[e.Name] = e
			}
		}
		for _, e := range ents {
			if e.Name == "." || e.Name == ".." {
				continue
			}
			fe, ok := fsByName[e.Name]
			if !ok {
				addf("tape has %q (ino %d) but the filesystem does not", e.Name, e.Ino)
				continue
			}
			if fe.Type != e.Type {
				addf("%q: type differs (tape %o, fs %o)", e.Name, e.Type, fe.Type)
			}
			delete(fsByName, e.Name)
			if _, dup := inoMap[e.Ino]; !dup {
				inoMap[e.Ino] = fe.Ino
				locs[e.Ino] = location{dir: d, name: e.Name}
			}
			if e.Type == wafl.ModeDir {
				queue = append(queue, e.Ino)
			}
		}
		for name := range fsByName {
			addf("filesystem has %q but the tape does not", name)
		}
	}

	// Stream the file section, comparing contents against the view.
	v := &verifier{view: opts.View, res: res, inoMap: inoMap, locs: locs}
	visit := func(off uint64, seg []byte) error { return v.segment(ctx, off, seg) }
	if err := fileSection(r, pending, func(h *dumpfmt.Header) (*dumpfmt.Header, error) {
		v.begin(ctx, h)
		return r.Walk(h, visit)
	}); err != nil {
		return nil, err
	}
	res.SkippedUnits = r.Skipped()
	span.SetAttr("files", res.FilesChecked)
	span.SetAttr("dirs", res.DirsChecked)
	span.SetAttr("bytes", res.BytesRead)
	span.SetAttr("problems", len(res.Problems))
	m := obs.MetricsFrom(ctx)
	lbl := obs.Labels{"engine": "logical"}
	m.Counter("verify_bytes_total", lbl).Add(res.BytesRead)
	m.Counter("verify_problems_total", lbl).Add(int64(len(res.Problems)))
	m.Counter("verify_skipped_units_total", lbl).Add(int64(res.SkippedUnits))
	return res, nil
}

// Index reads a logical stream end to end through the checks every
// reader of one makes — header checksums, resynchronization, the TS_END
// that says it is whole — applying nothing, and hands file (which may
// be nil) each file on it: the path the stream's own directories name
// it by, its inode, and the unit its TS_INODE header starts at, where a
// seek-capable source can space to it. Paths are found breadth-first
// from the dump root, and a hard link keeps the first name seen: the
// walk and the rule of the dump's Phase I, so they are the names the
// dump saw. A file no directory on the stream names is not handed over.
// resynced counts the corrupt units the reader skipped.
func Index(src stream.Source, file func(path string, ino wafl.Inum, unit int64)) (resynced int, err error) {
	r := dumpfmt.NewReader(src)
	des, h, err := readDirectories(r, &RestoreStats{})
	if err == nil {
		paths := des.paths()
		err = fileSection(r, h, func(h *dumpfmt.Header) (*dumpfmt.Header, error) {
			if p, ok := paths[wafl.Inum(h.Inumber)]; ok && file != nil {
				file(p, wafl.Inum(h.Inumber), h.Tapea)
			}
			return r.Walk(h, nil)
		})
	}
	return r.Skipped(), err
}

// paths names every inode the stream's directories reach by its
// dump-relative path ("a/b/c"; "" is the root), breadth-first, the first
// name seen winning.
func (d *desiccated) paths() map[wafl.Inum]string {
	paths := map[wafl.Inum]string{d.rootIno: ""}
	for queue := []wafl.Inum{d.rootIno}; len(queue) > 0; queue = queue[1:] {
		dir := queue[0]
		for _, e := range d.ents[dir] {
			if _, seen := paths[e.Ino]; seen || e.Name == "." || e.Name == ".." {
				continue
			}
			paths[e.Ino] = path.Join(paths[dir], e.Name)
			if _, isDir := d.ents[e.Ino]; isDir {
				queue = append(queue, e.Ino)
			}
		}
	}
	return paths
}

func (res *VerifyResult) addf(format string, args ...interface{}) {
	res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
}

// verifier compares the file section's records against the view.
type verifier struct {
	view   *wafl.View
	res    *VerifyResult
	inoMap map[wafl.Inum]wafl.Inum // tape ino → fs ino
	locs   map[wafl.Inum]location

	// The file being walked: its name for reports, its inode in the
	// view, and whether its contents are (still) worth comparing.
	name    string
	fsIno   wafl.Inum
	compare bool
	buf     [dumpfmt.TPBSize]byte
}

// begin checks a file's header against the view.
func (v *verifier) begin(ctx context.Context, h *dumpfmt.Header) {
	tapeIno := wafl.Inum(h.Inumber)
	di := h.Dinode
	fsIno, known := v.inoMap[tapeIno]
	name := fmt.Sprintf("tape ino %d", tapeIno)
	if loc, ok := v.locs[tapeIno]; ok {
		name = loc.name
	}
	v.name, v.fsIno, v.compare = name, fsIno, false
	if !known {
		v.res.addf("%s: on tape but not referenced by any tape directory", name)
		return
	}
	fsInode, err := v.view.GetInode(ctx, fsIno)
	if err != nil {
		v.res.addf("%s: on tape but unreadable in the filesystem: %v", name, err)
		return
	}
	v.res.FilesChecked++
	if fsInode.Size != di.Size {
		v.res.addf("%s: size differs (tape %d, fs %d)", name, di.Size, fsInode.Size)
	}
	if fsInode.Mode&07777 != di.Mode&07777 {
		v.res.addf("%s: mode differs (tape %o, fs %o)", name, di.Mode&07777, fsInode.Mode&07777)
	}
	v.compare = fsInode.Size == di.Size
}

// segment compares one present segment byte for byte.
func (v *verifier) segment(ctx context.Context, off uint64, seg []byte) error {
	v.res.BytesRead += int64(len(seg))
	if !v.compare {
		return nil
	}
	n, err := v.view.ReadAt(ctx, v.fsIno, off, v.buf[:len(seg)])
	if err != nil || n != len(seg) || !bytes.Equal(v.buf[:n], seg) {
		v.res.addf("%s: contents differ at offset %d", v.name, off)
		v.compare = false // one report per file
	}
	return nil
}
