package logical

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"repro/internal/dumpfmt"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/stream"
	"repro/internal/wafl"
)

// StageRecorder receives stage boundaries so the benchmark harness can
// attribute elapsed time and resource utilization to dump phases the
// way the paper's Table 3 does. A nil recorder is ignored.
type StageRecorder interface {
	Begin(name string)
	End()
}

// DumpOptions configures a logical dump.
type DumpOptions struct {
	// View is the filesystem view to dump — normally a snapshot view,
	// which is what gives dump its self-consistent image (paper §3).
	View *wafl.View
	// Level is the incremental level, 0..9.
	Level int
	// Dates is the dump-date history; nil treats every level as 0.
	// On success the dump records its date here.
	Dates *DumpDates
	// FSID identifies the filesystem in Dates (e.g. "home").
	FSID string
	// Subtree restricts the dump to the directory at this path
	// ("" = whole filesystem) — "a user can back up a subset of a
	// data in a file system".
	Subtree string
	// Exclude, if set, filters out entries by name ("logical backup
	// schemes often take advantage of filters"). The name is lent from a
	// reused directory listing (wafl.Listing) and is scribbled over once
	// the next directory is listed: Exclude must not keep it.
	Exclude func(name string) bool
	// Sink receives the stream of a single-stream dump: shorthand for a
	// one-element Sinks whose failure comes back bare, with the resume
	// checkpoint in DumpStats.Checkpoint. Mutually exclusive with Sinks.
	Sink stream.Sink
	// Sinks fans one Dump call out across parallel tape drives: shard
	// k of len(Sinks) writes a self-contained stream to Sinks[k] —
	// full inode maps and all directories (so restore can map names),
	// plus the k-th contiguous slice of the Phase IV file list in
	// inode order. The shards stream concurrently on the internal
	// pipeline; restore applies the shard streams in any order. A
	// shard failure does not abort its siblings: the other shards run
	// to completion and the failed shard's checkpoint comes back in
	// ShardResults, to be resumed on its own (Sink + Resume).
	Sinks []stream.Sink
	// Readers is the number of parallel Phase IV chunk stagers per
	// stream (default 1). They pull file chunks off a shared plan and
	// the stream is written in plan order, so the bytes on tape do not
	// depend on Readers. With read-ahead on they copy out of the buffer
	// cache — the dump issues its device reads from one place, whatever
	// the reader count — so more of them buy CPU overlap, not disk
	// parallelism.
	Readers int
	// Label names the dump on tape.
	Label string
	// ReadAhead turns on the dump engine's own read-ahead (paper §3:
	// "Network Appliance's dump generates its own read-ahead policy"):
	// Phase I reads the tree a frontier at a time and Phase IV issues
	// every stream's reads ahead of its readers, both in physical block
	// order. 0 turns it off; the magnitude of a positive value is not
	// used — how far ahead to run comes from the view's buffer cache
	// and the number of streams.
	ReadAhead int
	// Stages receives stage boundaries; may be nil.
	Stages StageRecorder
	// CheckpointEvery emits a durable TS_CHECKPOINT record after every
	// N files in Phase IV, making the dump restartable (§4 of the
	// paper restarts image dumps at tape boundaries; checkpoints give
	// the logical stream the same property). 0 disables checkpoints
	// and keeps the stream byte-identical to older dumps.
	CheckpointEvery int
	// Resume continues one interrupted stream onto Sink from the
	// checkpoint a failed Dump returned — DumpStats.Checkpoint of a
	// single-stream dump, or one shard's ShardResults[k].Checkpoint of
	// a parallel one, whose slice of the file list the checkpoint
	// names. Phases I-III run again (the new stream must be
	// self-contained enough for restore to map names), but Phase IV
	// skips files already durably on the previous stream.
	Resume *Checkpoint
}

// Checkpoint is the durable progress of an interrupted dump. It names
// the last file inode known to be wholly on media; re-invoking Dump
// with it resumes after that inode instead of at block zero.
type Checkpoint struct {
	Date    int64 // dump date of the interrupted run (kept across streams)
	Level   int
	LastIno wafl.Inum // 0 = no file completed
	// Shard/Shards name the slice of the file list the stream carries
	// (slice Shard of Shards; both zero for a single stream that is not
	// one of a set), so a resume redumps exactly that slice.
	Shard  int
	Shards int
}

// DamagedBlock identifies a file block the dump could not read even
// with retries and RAID recovery. The block was hole-mapped, so the
// restored file reads zeros there; everything else restores intact.
type DamagedBlock struct {
	Ino wafl.Inum
	Fbn uint32 // file block number
	Err string // the final read error, for the operator's report
}

// DumpStats reports what a dump did.
type DumpStats struct {
	Date         int64
	BaseDate     int64
	InodesMapped int
	DirsDumped   int
	FilesDumped  int
	FilesSkipped int // already on media per the resume checkpoint
	BytesWritten int64
	// Damaged lists file blocks hole-mapped after unrecoverable read
	// faults — the "exactly which inodes were damaged" report.
	Damaged []DamagedBlock
	// Checkpoint is set (alongside a non-nil error) when a
	// single-stream (Sink) dump aborted mid-stream: the point to Resume
	// from, LastIno 0 when nothing was durable yet. Nil on success.
	Checkpoint *Checkpoint
	// ShardResults is the per-stream outcome, one entry per sink. The
	// top-level file and byte counters aggregate across shards;
	// DirsDumped counts unique directories (every stream carries all
	// of them).
	ShardResults []ShardResult
}

// ShardResult is one stream's outcome within a dump.
type ShardResult struct {
	Shard        int
	FilesDumped  int
	FilesSkipped int // already on media per the resume checkpoint
	BytesWritten int64
	// Damaged lists this shard's hole-mapped blocks, in stream order.
	Damaged []DamagedBlock
	// Checkpoint is set (alongside a non-nil Err) when the shard
	// aborted: its last durable checkpoint, LastIno 0 when nothing was
	// durable yet.
	Checkpoint *Checkpoint
	// Err is the shard's failure, nil when the shard completed.
	Err error
}

// dumpState carries the four phases' shared working set.
type dumpState struct {
	opts    DumpOptions
	view    *wafl.View
	date    int64
	ddate   int64
	rootIno wafl.Inum

	used   *dumpfmt.InoMap // allocated inodes in the view (subtree)
	dump   *dumpfmt.InoMap // inodes to be dumped
	isDir  map[wafl.Inum]bool
	parent map[wafl.Inum]wafl.Inum
	inodes map[wafl.Inum]wafl.Inode

	// Phase III/IV worklists, shared read-only by every stream: the
	// free-inode map, the directories and files to dump in ascending
	// inode order, and each directory's encoded entry list.
	clri     *dumpfmt.InoMap
	dirInos  []wafl.Inum
	fileInos []wafl.Inum
	dirBlobs [][]byte // parallel to dirInos, each a capped slice of one arena

	untimed bool       // stages are real goroutines, not simulator procs
	viewMu  sync.Mutex // see lockView

	stats *DumpStats
}

// runBlocks is how many file blocks Phase IV reads per bulk ReadAt.
const runBlocks = 16

// Dump runs the four-phase logical dump and writes one self-contained
// stream per sink: to opts.Sink, or fanned out across opts.Sinks with
// Phase IV split between them.
func Dump(ctx context.Context, opts DumpOptions) (*DumpStats, error) {
	if opts.View == nil {
		return nil, fmt.Errorf("logical: nil view")
	}
	streams, err := pipeline.Streams(opts.Sink, opts.Sinks, opts.Resume,
		func(c *Checkpoint) pipeline.Shard { return pipeline.Shard{K: c.Shard, N: c.Shards} })
	if err != nil {
		return nil, fmt.Errorf("logical: %w", err)
	}
	if opts.Level < 0 || opts.Level > MaxLevel {
		return nil, fmt.Errorf("logical: bad level %d", opts.Level)
	}
	fs := opts.View.FS()
	st := &dumpState{
		opts:   opts,
		view:   opts.View,
		date:   fs.Clock(),
		isDir:  make(map[wafl.Inum]bool),
		parent: make(map[wafl.Inum]wafl.Inum),
		inodes: make(map[wafl.Inum]wafl.Inode),
	}
	if opts.Dates != nil {
		st.ddate = opts.Dates.Base(opts.FSID, opts.Level)
	}
	// A continuation inherits the interrupted dump's date, so that all
	// the set's streams describe one self-consistent dump. (Only a
	// single stream can carry a resume checkpoint.)
	if r := streams[0].Resume; r != nil {
		if r.Level != opts.Level {
			return nil, fmt.Errorf("logical: resume checkpoint is level %d, dump is level %d", r.Level, opts.Level)
		}
		st.date = r.Date
	}
	root := wafl.RootIno
	if opts.Subtree != "" {
		root, err = opts.View.Namei(ctx, opts.Subtree)
		if err != nil {
			return nil, fmt.Errorf("logical: subtree %q: %w", opts.Subtree, err)
		}
	}
	st.rootIno = root

	ctx, dumpSpan := obs.Start(ctx, "logical.dump")
	dumpSpan.SetAttr("level", opts.Level)
	defer func() {
		if st.stats != nil {
			dumpSpan.SetAttr("files", st.stats.FilesDumped)
			dumpSpan.SetAttr("dirs", st.stats.DirsDumped)
			dumpSpan.SetAttr("bytes", st.stats.BytesWritten)
		}
		dumpSpan.End()
	}()

	var phaseSpan *obs.Span
	begin := func(name string) {
		if opts.Stages != nil {
			opts.Stages.Begin(name)
		}
		_, phaseSpan = obs.Start(ctx, phaseSpanName(name))
	}
	end := func() {
		if opts.Stages != nil {
			opts.Stages.End()
		}
		phaseSpan.End()
		phaseSpan = nil
	}

	// Phase I: map the files and directories to be dumped.
	begin("Mapping files and directories")
	if err := st.phaseMap(ctx); err != nil {
		end()
		return nil, err
	}
	end()

	// The free-inode map and the sorted Phase III/IV worklists are
	// computed once and shared by every stream.
	st.clri = dumpfmt.NewInoMap(uint32(st.view.NumInodes(ctx)))
	for i := uint32(wafl.RootIno); i < uint32(st.view.NumInodes(ctx)); i++ {
		if !st.used.Has(i) {
			st.clri.Set(i)
		}
	}
	for ino := range st.inodes {
		if !st.dump.Has(uint32(ino)) {
			continue
		}
		if st.isDir[ino] {
			st.dirInos = append(st.dirInos, ino)
		} else {
			st.fileInos = append(st.fileInos, ino)
		}
	}
	slices.Sort(st.dirInos)
	slices.Sort(st.fileInos)

	return st.dumpShards(ctx, streams, begin, end)
}

// phaseSpanName maps the harness-facing stage names to span names,
// numbered the way the paper numbers the dump's phases.
func phaseSpanName(stage string) string {
	switch stage {
	case "Mapping files and directories":
		return "logical.phase12_map"
	case "Dumping directories":
		return "logical.phase3_dirs"
	case "Dumping files":
		return "logical.phase4_files"
	}
	return "logical." + obs.Slug(stage)
}

// phaseMap walks the subtree, recording every allocated inode, its
// parent, and whether it needs dumping (Phase I), then propagates
// directory requirements up to the root (Phase II).
//
// The walk is breadth-first, one stretch of the frontier at a time: the
// inode-file blocks the stretch needs are read ahead as one batch, then
// the data blocks of its directories as another, and only then are its
// entries processed — from cache, in plain queue order, so the maps do
// not depend on the read-ahead. A stretch is bounded so that what it
// reads ahead fits the buffer cache.
func (st *dumpState) phaseMap(ctx context.Context) error {
	st.used = dumpfmt.NewInoMap(uint32(st.view.NumInodes(ctx)))
	st.dump = dumpfmt.NewInoMap(uint32(st.view.NumInodes(ctx)))

	type qent struct{ ino, parent wafl.Inum }
	stretch := max(st.view.CacheBlocks()/2, 1)
	frontier := []qent{{st.rootIno, st.rootIno}}
	var next []qent
	var pbns []wafl.BlockNo
	visited := map[wafl.Inum]bool{}
	var listing wafl.Listing
	for len(frontier) > 0 {
		level := frontier[:min(len(frontier), stretch)]
		frontier = frontier[len(level):]
		if st.opts.ReadAhead > 0 {
			// Whatever fails to resolve here fails again, in order, below.
			pbns = pbns[:0]
			for _, e := range level {
				if visited[e.ino] {
					continue
				}
				if pbn, err := st.view.InodeBlock(ctx, e.ino); err == nil {
					pbns = append(pbns, pbn)
				}
			}
			st.view.Prefetch(ctx, pbns)
			pbns = pbns[:0]
			for _, e := range level {
				if visited[e.ino] || len(pbns) >= stretch {
					continue
				}
				if inode, err := st.view.GetInode(ctx, e.ino); err == nil && wafl.IsDir(inode.Mode) {
					pbns = st.appendBlocks(ctx, pbns, e.ino, 0, inode.Blocks())
				}
			}
			st.view.Prefetch(ctx, pbns)
		}
		for _, cur := range level {
			if err := ctx.Err(); err != nil {
				return err
			}
			if visited[cur.ino] {
				continue
			}
			visited[cur.ino] = true
			inode, err := st.view.GetInode(ctx, cur.ino)
			if err != nil {
				return err
			}
			st.used.Set(uint32(cur.ino))
			st.parent[cur.ino] = cur.parent
			st.inodes[cur.ino] = inode
			st.isDir[cur.ino] = wafl.IsDir(inode.Mode)
			// Changed since the base date? (Level 0 has ddate 0: everything.)
			if inode.Mtime > st.ddate || inode.Ctime > st.ddate {
				st.dump.Set(uint32(cur.ino))
			}
			if wafl.IsDir(inode.Mode) {
				ents, err := listing.Fill(ctx, st.view, cur.ino)
				if err != nil {
					return err
				}
				for _, e := range ents {
					if e.Name == "." || e.Name == ".." {
						continue
					}
					if st.opts.Exclude != nil && st.opts.Exclude(e.Name) {
						continue
					}
					next = append(next, qent{e.Ino, cur.ino})
				}
			}
		}
		if len(frontier) == 0 {
			frontier, next = next, nil
		}
	}

	// Phase II: every dumped inode needs its ancestor directories on
	// tape so restore can map names to inode numbers.
	for ino := range st.inodes {
		if !st.dump.Has(uint32(ino)) {
			continue
		}
		for p := ino; ; {
			par := st.parent[p]
			st.dump.Set(uint32(par))
			if par == p || par == st.rootIno {
				break
			}
			p = par
		}
	}
	st.dump.Set(uint32(st.rootIno))
	return nil
}

// appendBlocks appends the physical blocks behind file blocks
// [fbn, fbn+n) of ino to pbns, for a read-ahead batch. Holes, staged
// blocks with no physical home yet, and blocks whose address cannot be
// resolved are left out: the demand read reports what is wrong with
// them.
func (st *dumpState) appendBlocks(ctx context.Context, pbns []wafl.BlockNo, ino wafl.Inum, fbn, n uint32) []wafl.BlockNo {
	for end := fbn + n; fbn < end; fbn++ {
		if pbn, err := st.view.BlockAt(ctx, ino, fbn); err == nil && pbn > 1 {
			pbns = append(pbns, pbn)
		}
	}
	return pbns
}

// Directory records on tape, one per entry: [ino u32][type u8][len u16][name].
const dirRecHead = 7

// appendDirEnts appends the encoded records of ents to buf, growing it
// as an arena grows (see growArena).
func appendDirEnts(buf []byte, ents []wafl.DirEnt) []byte {
	size := 0
	for _, e := range ents {
		size += dirRecHead + len(e.Name)
	}
	buf = growArena(buf, size)
	var tmp [dirRecHead]byte
	for _, e := range ents {
		binary.LittleEndian.PutUint32(tmp[0:], uint32(e.Ino))
		tmp[4] = byte(e.Type >> 12)
		binary.LittleEndian.PutUint16(tmp[5:], uint16(len(e.Name)))
		buf = append(buf, tmp[:]...)
		buf = append(buf, e.Name...)
	}
	return buf
}

// growArena returns buf with room for n more bytes. When it must move,
// it at least doubles, so an arena of every directory's records costs at
// most its own size again in copies; append grows a large slice by
// about a quarter at a time, which would cost several times that.
func growArena(buf []byte, n int) []byte {
	if cap(buf)-len(buf) >= n {
		return buf
	}
	return slices.Grow(buf, max(n, len(buf)))
}

// DecodeDirEnts reverses appendDirEnts for one directory's records;
// exported for tests. The names are slices of one copy of data.
func DecodeDirEnts(data []byte) ([]wafl.DirEnt, error) {
	n, err := countDirEnts(data)
	if err != nil {
		return nil, err
	}
	return decodeDirEnts(make([]wafl.DirEnt, 0, n), string(data)), nil
}

// countDirEnts checks that data is whole directory records and returns
// how many there are.
func countDirEnts(data []byte) (int, error) {
	n := 0
	for off := 0; off < len(data); n++ {
		if off+dirRecHead > len(data) {
			return 0, fmt.Errorf("logical: truncated directory record at %d", off)
		}
		name := off + dirRecHead
		off = name + int(binary.LittleEndian.Uint16(data[off+5:]))
		if off > len(data) {
			return 0, fmt.Errorf("logical: truncated directory name at %d", name)
		}
	}
	return n, nil
}

// decodeDirEnts appends the entries of records countDirEnts has
// accepted, held in s, to ents; every name is a slice of s.
func decodeDirEnts(ents []wafl.DirEnt, s string) []wafl.DirEnt {
	for off := 0; off < len(s); {
		ino := uint32(s[off]) | uint32(s[off+1])<<8 | uint32(s[off+2])<<16 | uint32(s[off+3])<<24
		typ := uint32(s[off+4]) << 12
		end := off + dirRecHead + (int(s[off+5]) | int(s[off+6])<<8)
		ents = append(ents, wafl.DirEnt{Ino: wafl.Inum(ino), Type: typ, Name: s[off+dirRecHead : end]})
		off = end
	}
	return ents
}

func toDumpInode(ino *wafl.Inode) dumpfmt.DumpInode {
	return dumpfmt.DumpInode{
		Mode:  ino.Mode,
		Nlink: ino.Nlink,
		UID:   ino.UID,
		GID:   ino.GID,
		Size:  ino.Size,
		Atime: ino.Atime,
		Mtime: ino.Mtime,
		XMode: ino.XMode,
	}
}
