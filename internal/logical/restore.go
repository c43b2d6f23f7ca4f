package logical

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/dumpfmt"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/wafl"
)

// RestoreOptions configures a logical restore.
type RestoreOptions struct {
	// FS is the target filesystem.
	FS *wafl.FS
	// Source supplies the dump stream.
	Source stream.Source
	// TargetDir is where the dump root is grafted ("" or "/" = root).
	TargetDir string
	// Files optionally restricts the restore to these dump-relative
	// paths and their descendants — "stupidity recovery" (paper §1).
	Files []string
	// SyncDeletes removes entries that exist in the target but not in
	// the dump's directories; set when applying an incremental on top
	// of its base so deletions and renames propagate.
	SyncDeletes bool
	// KernelIntegrated enables the paper's §3 fast paths: directory
	// permissions set correctly at creation (no final permission
	// pass) and no user-level data copies. Off models a user-level
	// BSD restore.
	KernelIntegrated bool
	// Salvage tolerates a torn stream — one whose source ends before
	// TS_END, the tail left on tape by a dump that aborted after its
	// last checkpoint — which is otherwise an error wrapping
	// io.ErrUnexpectedEOF. Everything before the tear restores normally,
	// a file torn inside keeps what was read, and TornTail is set in the
	// stats. A stream torn earlier, inside its maps or directories,
	// applies nothing. The resumed dump's stream re-dumps what the tear
	// lost, so a concatenated restore loses nothing.
	Salvage bool
	// Stages receives stage boundaries; may be nil.
	Stages StageRecorder
}

// RestoreStats reports what a restore did.
type RestoreStats struct {
	FilesRestored int
	DirsCreated   int
	FilesSkipped  int // present on tape, not selected
	LinksMade     int
	Deleted       int // entries removed by incremental sync
	BytesRead     int64
	SkippedUnits  int  // corrupt 1 KB units skipped by resync
	TornTail      bool // stream ended before TS_END and Salvage kept what came before
}

// desiccated is restore's in-memory "desiccated file system": the
// dump's directory structure, read from tape in pass one, over which
// restore runs its own namei without laying directories on disk
// (paper §3).
type desiccated struct {
	rootIno  wafl.Inum
	ents     map[wafl.Inum][]wafl.DirEnt
	attrs    map[wafl.Inum]dumpfmt.DumpInode
	haveBits *dumpfmt.InoMap // inodes present on this tape
	usedBits *dumpfmt.InoMap // inodes allocated at dump time
}

// lookup runs one path component.
func (d *desiccated) lookup(dir wafl.Inum, name string) (wafl.DirEnt, bool) {
	for _, e := range d.ents[dir] {
		if e.Name == name {
			return e, true
		}
	}
	return wafl.DirEnt{}, false
}

// namei resolves a dump-relative path against the desiccated tree.
func (d *desiccated) namei(p string) (wafl.Inum, bool) {
	cur := d.rootIno
	for _, c := range wafl.SplitPath(p) {
		e, ok := d.lookup(cur, c)
		if !ok {
			return 0, false
		}
		cur = e.Ino
	}
	return cur, true
}

// Restore reads a dump stream and recreates its contents on opts.FS.
func Restore(ctx context.Context, opts RestoreOptions) (*RestoreStats, error) {
	if opts.FS == nil || opts.Source == nil {
		return nil, fmt.Errorf("logical: nil fs or source")
	}
	r := dumpfmt.NewReader(opts.Source)
	stats := &RestoreStats{}
	ctx, restoreSpan := obs.Start(ctx, "logical.restore")
	defer func() {
		restoreSpan.SetAttr("files", stats.FilesRestored)
		restoreSpan.SetAttr("dirs", stats.DirsCreated)
		restoreSpan.SetAttr("bytes", stats.BytesRead)
		restoreSpan.End()
	}()
	var phaseSpan *obs.Span
	begin := func(name string) {
		if opts.Stages != nil {
			opts.Stages.Begin(name)
		}
		_, phaseSpan = obs.Start(ctx, "logical."+obs.Slug(name))
	}
	end := func() {
		if opts.Stages != nil {
			opts.Stages.End()
		}
		phaseSpan.End()
		phaseSpan = nil
	}

	// Pass one: read maps and directories into the desiccated tree.
	begin("Reading directories")
	des, pending, err := readDirectories(r, stats)
	end()
	if err != nil {
		if opts.Salvage && errors.Is(err, io.ErrUnexpectedEOF) {
			// Torn inside the maps or directories: nothing on this
			// stream is usable, and the resumed stream carries it all.
			stats.TornTail = true
			return stats, nil
		}
		return nil, err
	}

	// Resolve the selection (nil = everything).
	var wanted map[wafl.Inum]bool
	if len(opts.Files) > 0 {
		wanted = make(map[wafl.Inum]bool)
		for _, p := range opts.Files {
			ino, ok := des.namei(p)
			if !ok {
				return nil, fmt.Errorf("logical: %q not on this tape", p)
			}
			markSubtree(des, ino, wanted)
		}
	}

	// Create the directory skeleton (and, for incremental application,
	// sync deletions), building the dump→filesystem inode map.
	begin("Creating files")
	rst := &restoreState{
		opts: opts, fs: opts.FS, des: des, wanted: wanted, stats: stats,
		inoMap: make(map[wafl.Inum]wafl.Inum),
	}
	if err := rst.buildSkeleton(ctx); err != nil {
		end()
		return nil, err
	}
	end()

	// Stream files onto the filesystem.
	begin("Filling in data")
	err = rst.streamFiles(ctx, r, pending)
	end()
	if err != nil {
		if opts.Salvage && errors.Is(err, io.ErrUnexpectedEOF) {
			stats.TornTail = true
		} else {
			return nil, err
		}
	}

	// Final pass: directory times (and permissions when not
	// kernel-integrated — the paper's in-kernel restore "can set the
	// permissions on directories correctly when they are created and
	// does not need the final pass").
	begin("Setting directory attributes")
	err = rst.finishDirs(ctx)
	end()
	if err != nil {
		return nil, err
	}
	if err := opts.FS.CP(ctx); err != nil {
		return nil, err
	}
	stats.SkippedUnits = r.Skipped()
	m := obs.MetricsFrom(ctx)
	m.Counter("logical_restore_files_total", nil).Add(int64(stats.FilesRestored))
	m.Counter("logical_restore_dirs_total", nil).Add(int64(stats.DirsCreated))
	m.Counter("logical_restore_bytes_total", nil).Add(stats.BytesRead)
	return stats, nil
}

// readDirectories consumes the stream's maps and directories, returning
// the desiccated tree and the first header past them: a file's, an
// orphan continuation's or TS_END.
func readDirectories(r *dumpfmt.Reader, stats *RestoreStats) (*desiccated, *dumpfmt.Header, error) {
	des := &desiccated{
		ents:  make(map[wafl.Inum][]wafl.DirEnt),
		attrs: make(map[wafl.Inum]dumpfmt.DumpInode),
	}
	// Maps and directories are hole-free, so a blob is its segments in
	// stream order.
	var blob []byte
	collect := func(_ uint64, seg []byte) error {
		blob = append(blob, seg...)
		return nil
	}
	h, err := r.NextHeader()
	for err == nil {
		isMap := h.Type == dumpfmt.TSClri || h.Type == dumpfmt.TSBits
		switch {
		case h.Type == dumpfmt.TSTape || h.Type == dumpfmt.TSCheckpoint:
			h, err = r.NextHeader()
			continue
		case !isMap && !(h.Type == dumpfmt.TSInode && wafl.IsDir(h.Dinode.Mode)):
			return des, h, nil // directories are over
		}
		cur := h
		blob = blob[:0]
		if h, err = r.Walk(cur, collect); err != nil {
			break
		}
		stats.BytesRead += int64(len(blob))
		ino := wafl.Inum(cur.Inumber)
		switch {
		case cur.Type == dumpfmt.TSBits:
			des.haveBits, des.rootIno = dumpfmt.InoMapFromBytes(blob), ino
		case isMap:
			des.usedBits, des.rootIno = dumpfmt.InoMapFromBytes(blob), ino
		case uint64(len(blob)) < cur.Dinode.Size:
			// A listing cut short would pass for one with entries deleted.
			return nil, nil, fmt.Errorf("logical: directory inode %d truncated at %d of %d bytes", ino, len(blob), cur.Dinode.Size)
		default:
			// A damaged directory loses only its own entries.
			if ents, err := DecodeDirEnts(blob); err == nil {
				des.ents[ino] = ents
				des.attrs[ino] = cur.Dinode
			}
		}
	}
	return nil, nil, err
}

// markSubtree marks ino and (for directories) everything beneath it.
func markSubtree(des *desiccated, ino wafl.Inum, out map[wafl.Inum]bool) {
	if out[ino] {
		return
	}
	out[ino] = true
	for _, e := range des.ents[ino] {
		if e.Name == "." || e.Name == ".." {
			continue
		}
		markSubtree(des, e.Ino, out)
	}
}

// restoreState carries pass-two state.
type restoreState struct {
	opts   RestoreOptions
	fs     *wafl.FS
	des    *desiccated
	wanted map[wafl.Inum]bool
	stats  *RestoreStats
	inoMap map[wafl.Inum]wafl.Inum // dump ino → fs ino

	// locations of each dump ino across the dump's directories, for
	// hard links; built lazily.
	locs map[wafl.Inum][]location

	dirsToFinish []wafl.Inum // dump dir inos created/updated this run

	// The file restoreFile is walking: where segment puts its data, if
	// it is wanted, and the write-coalescing buffer (empty between files;
	// FS.Write keeps no reference to it) with the offset it starts at.
	fsIno    wafl.Inum
	writing  bool
	batch    []byte
	batchOff uint64
}

type location struct {
	dir  wafl.Inum // dump dir ino
	name string
}

func (rst *restoreState) selected(ino wafl.Inum) bool {
	return rst.wanted == nil || rst.wanted[ino]
}

// buildSkeleton walks the dump's directory tree breadth-first,
// creating missing directories, recording existing ones, and (when
// SyncDeletes) removing target entries absent from the dump.
func (rst *restoreState) buildSkeleton(ctx context.Context) error {
	target := rst.opts.TargetDir
	fsRoot, err := rst.fs.MkdirAll(ctx, target, 0755)
	if err != nil {
		return err
	}
	des := rst.des
	rst.inoMap[des.rootIno] = fsRoot
	rst.locs = make(map[wafl.Inum][]location)

	queue := []wafl.Inum{des.rootIno}
	seen := map[wafl.Inum]bool{}
	av := rst.fs.ActiveView()
	// Per-directory scratch, cleared and reused for every directory.
	dumpNames := make(map[string]wafl.DirEnt)
	onDisk := make(map[string]wafl.Inum)
	var names []string
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		if seen[d] {
			continue
		}
		seen[d] = true
		fsDir, ok := rst.inoMap[d]
		if !ok {
			continue // parent was not selected/created
		}
		if _, inDump := des.ents[d]; inDump {
			rst.dirsToFinish = append(rst.dirsToFinish, d)
		}

		clear(dumpNames)
		for _, e := range des.ents[d] {
			if e.Name == "." || e.Name == ".." {
				continue
			}
			dumpNames[e.Name] = e
			rst.locs[e.Ino] = append(rst.locs[e.Ino], location{dir: d, name: e.Name})
		}

		// One listing of the target directory answers every question
		// this pass has about it: what to delete, which directories
		// are already there, which files to adopt.
		existing, err := av.Readdir(ctx, fsDir)
		if err != nil {
			return err
		}
		clear(onDisk)
		for _, e := range existing {
			onDisk[e.Name] = e.Ino
		}

		// Deletion sync: anything on the filesystem that the dump's
		// copy of this directory does not mention was deleted (or
		// renamed away) between base and incremental. Only directories
		// whose listing is actually on this tape may be synced — an
		// incremental omits unchanged directories entirely, and their
		// absence says nothing about deletions.
		if _, onTape := des.ents[d]; rst.opts.SyncDeletes && onTape {
			for _, e := range existing {
				if e.Name == "." || e.Name == ".." {
					continue
				}
				if _, ok := dumpNames[e.Name]; !ok {
					if err := rst.removeRecursive(ctx, fsDir, e); err != nil {
						return err
					}
				}
			}
		}

		// Create or map subdirectories; map existing files.
		names = names[:0]
		for n := range dumpNames {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			e := dumpNames[n]
			fsIno, exists := onDisk[n]
			if e.Type != wafl.ModeDir {
				if exists {
					rst.inoMap[e.Ino] = fsIno
				}
				continue
			}
			if !rst.selected(e.Ino) && rst.wanted != nil {
				// Still descend: a selected file may live below.
				if !rst.anySelectedBelow(e.Ino) {
					continue
				}
			}
			if !exists {
				attrs := des.attrs[e.Ino]
				perm := attrs.Mode & 0777
				if perm == 0 {
					perm = 0755
				}
				if !rst.opts.KernelIntegrated {
					perm = 0700 // provisional; fixed in the final pass
				}
				fsIno, err = rst.fs.Mkdir(ctx, fsDir, n, perm, attrs.UID, attrs.GID)
				if errors.Is(err, wafl.ErrExists) {
					// A sibling stream of the same set, restoring
					// concurrently, made it since the listing: every
					// stream carries the full directory set.
					fsIno, err = av.Lookup(ctx, fsDir, n)
				} else if err == nil {
					rst.stats.DirsCreated++
				}
				if err != nil {
					return err
				}
			}
			rst.inoMap[e.Ino] = fsIno
			queue = append(queue, e.Ino)
		}
	}
	return nil
}

// anySelectedBelow reports whether the selection reaches into dir.
func (rst *restoreState) anySelectedBelow(dir wafl.Inum) bool {
	if rst.wanted[dir] {
		return true
	}
	for _, e := range rst.des.ents[dir] {
		if e.Name == "." || e.Name == ".." {
			continue
		}
		if rst.wanted[e.Ino] {
			return true
		}
		if e.Type == wafl.ModeDir && rst.anySelectedBelow(e.Ino) {
			return true
		}
	}
	return false
}

// removeRecursive deletes a directory entry and any subtree under it.
func (rst *restoreState) removeRecursive(ctx context.Context, fsDir wafl.Inum, ent wafl.DirEnt) error {
	av := rst.fs.ActiveView()
	if ent.Type == wafl.ModeDir {
		children, err := av.Readdir(ctx, ent.Ino)
		if err != nil {
			return err
		}
		for _, c := range children {
			if c.Name == "." || c.Name == ".." {
				continue
			}
			if err := rst.removeRecursive(ctx, ent.Ino, c); err != nil {
				return err
			}
		}
		rst.stats.Deleted++
		return rst.fs.Rmdir(ctx, fsDir, ent.Name)
	}
	rst.stats.Deleted++
	return rst.fs.Remove(ctx, fsDir, ent.Name)
}

// fileSection runs the file portion of a stream from h on: each
// TS_INODE goes to file, which consumes its records and returns the
// first header past them. Whatever else turns up before TS_END carries
// nothing a reader wants and is read past — a continuation whose
// TS_INODE was lost to corruption, with its data.
func fileSection(r *dumpfmt.Reader, h *dumpfmt.Header, file func(*dumpfmt.Header) (*dumpfmt.Header, error)) error {
	var err error
	for err == nil && h.Type != dumpfmt.TSEnd {
		if h.Type == dumpfmt.TSInode {
			h, err = file(h)
		} else {
			h, err = r.Walk(h, nil)
		}
	}
	return err
}

// streamFiles lays the file portion of the stream onto the filesystem.
func (rst *restoreState) streamFiles(ctx context.Context, r *dumpfmt.Reader, h *dumpfmt.Header) error {
	visit := func(off uint64, seg []byte) error { return rst.segment(ctx, off, seg) }
	return fileSection(r, h, func(h *dumpfmt.Header) (*dumpfmt.Header, error) {
		return rst.restoreFile(ctx, r, h, visit)
	})
}

// maxBatch bounds the contiguous segments coalesced into one write.
const maxBatch = 64 << 10

// segment takes one present segment of the file being restored.
// Contiguous segments are coalesced into large writes — one filesystem
// operation (and one NVRAM log entry) per run rather than per 1 KB
// segment, as a real restore does.
func (rst *restoreState) segment(ctx context.Context, off uint64, seg []byte) error {
	rst.stats.BytesRead += int64(len(seg))
	if !rst.writing {
		return nil
	}
	if len(rst.batch) > 0 && (rst.batchOff+uint64(len(rst.batch)) != off || len(rst.batch) >= maxBatch) {
		if err := rst.flush(ctx); err != nil {
			return err
		}
	}
	if len(rst.batch) == 0 {
		rst.batchOff = off
	}
	rst.batch = append(rst.batch, seg...)
	return nil
}

// flush writes the coalesced run, if any.
func (rst *restoreState) flush(ctx context.Context) error {
	if len(rst.batch) == 0 {
		return nil
	}
	err := rst.fs.Write(ctx, rst.fsIno, rst.batchOff, rst.batch)
	rst.batch = rst.batch[:0]
	return err
}

// restoreFile lays one file (and its continuations) onto the
// filesystem, returning the first header that belongs to the next
// file. Under Salvage a file the stream tears inside keeps what was
// read — the resumed stream carries it whole — and the tear is returned
// once the file is closed.
func (rst *restoreState) restoreFile(ctx context.Context, r *dumpfmt.Reader, h *dumpfmt.Header, visit func(uint64, []byte) error) (*dumpfmt.Header, error) {
	dumpIno := wafl.Inum(h.Inumber)
	di := h.Dinode
	selected := rst.selected(dumpIno)

	var fsIno wafl.Inum
	var created bool
	if selected {
		var ok bool
		fsIno, ok = rst.inoMap[dumpIno]
		if ok {
			// Existing file updated by this (incremental) dump.
			if err := rst.fs.Truncate(ctx, fsIno, 0); err != nil {
				return nil, err
			}
		} else {
			locs := rst.locs[dumpIno]
			if len(locs) == 0 {
				// File not referenced by any dumped directory —
				// dangling; skip its data.
				selected = false
			} else {
				parentFs, ok := rst.inoMap[locs[0].dir]
				if !ok {
					selected = false
				} else {
					var err error
					perm := di.Mode & 07777
					if wafl.IsSymlink(di.Mode) {
						fsIno, err = rst.fs.Symlink(ctx, parentFs, locs[0].name, "")
						// Target data arrives as file contents below;
						// Symlink wrote "", so just write data.
					} else {
						fsIno, err = rst.fs.Create(ctx, parentFs, locs[0].name, perm, di.UID, di.GID)
					}
					if err != nil {
						return nil, err
					}
					rst.inoMap[dumpIno] = fsIno
					created = true
				}
			}
		}
	}

	rst.fsIno, rst.writing = fsIno, selected
	next, torn := r.Walk(h, visit)
	if torn != nil && !(rst.opts.Salvage && errors.Is(torn, io.ErrUnexpectedEOF)) {
		return nil, torn
	}

	if selected {
		if err := rst.flush(ctx); err != nil {
			return nil, err
		}
		// Size was written exactly; fix up attributes.
		attrs := wafl.Attr{Mtime: &di.Mtime, Atime: &di.Atime}
		mode := di.Mode & 07777
		xm := di.XMode
		attrs.XMode = &xm
		if rst.opts.KernelIntegrated || created {
			attrs.Mode = &mode
		}
		if err := rst.fs.SetAttr(ctx, rst.inoMap[dumpIno], attrs); err != nil {
			return nil, err
		}
		// Hard links: connect remaining locations.
		if locs := rst.locs[dumpIno]; !wafl.IsDir(di.Mode) && len(locs) > 1 {
			for _, loc := range locs[1:] {
				parentFs, ok := rst.inoMap[loc.dir]
				if !ok {
					continue
				}
				if _, err := rst.fs.ActiveView().Lookup(ctx, parentFs, loc.name); err == nil {
					continue
				}
				if err := rst.fs.Link(ctx, rst.inoMap[dumpIno], parentFs, loc.name); err != nil {
					return nil, err
				}
				rst.stats.LinksMade++
			}
		}
		rst.stats.FilesRestored++
	} else {
		rst.stats.FilesSkipped++
	}
	return next, torn
}

// finishDirs applies directory times (and, in user-level mode,
// permissions) after all creation activity is done.
func (rst *restoreState) finishDirs(ctx context.Context) error {
	for _, d := range rst.dirsToFinish {
		fsIno, ok := rst.inoMap[d]
		if !ok {
			continue
		}
		di, ok := rst.des.attrs[d]
		if !ok {
			continue
		}
		attrs := wafl.Attr{Mtime: &di.Mtime, Atime: &di.Atime}
		mode := di.Mode & 07777
		if mode != 0 {
			attrs.Mode = &mode
		}
		uid, gid, xm := di.UID, di.GID, di.XMode
		attrs.UID, attrs.GID, attrs.XMode = &uid, &gid, &xm
		if err := rst.fs.SetAttr(ctx, fsIno, attrs); err != nil {
			return err
		}
	}
	return nil
}
