package logical

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/bufpool"
	"repro/internal/dumpfmt"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/wafl"
)

// Phases III and IV, the one data path of every logical dump: the
// directories are read and encoded once on the calling process, then
// each stream (one per sink) is a shard — its slice of the Phase IV
// file list expanded into a plan of chunks, N readers staging chunks
// off the plan through pipeline.Fanout, and the stream written in plan
// order behind the full maps and the shared directory records. The plan
// fixes every header boundary before any file I/O starts, so a shard's
// bytes do not depend on the reader count or on how many sibling shards
// run beside it — parallelism changes only the clock.

// lockView serializes filesystem-view access across parallel Phase IV
// readers in untimed mode: the wafl block cache is not thread-safe. On
// the simulator the cooperative scheduler already serializes stages, so
// it is a no-op there (a real mutex must never be held across a
// simulated wait).
func (st *dumpState) lockView() {
	if st.untimed {
		st.viewMu.Lock()
	}
}

func (st *dumpState) unlockView() {
	if st.untimed {
		st.viewMu.Unlock()
	}
}

// log hands the operator's Log callback a line, serialized across shard
// writers when they are real goroutines.
func (st *dumpState) log(line string) {
	if st.untimed {
		st.cbMu.Lock()
		defer st.cbMu.Unlock()
	}
	st.opts.Log(line)
}

// segsPerBlock is how many dump segments one filesystem block holds.
const segsPerBlock = wafl.BlockSize / dumpfmt.TPBSize

// fileJob is one planned Phase IV chunk: up to MaxSegsPerHeader
// segments of one file. Chunks are block-aligned (MaxSegsPerHeader is a
// multiple of the segments per block).
type fileJob struct {
	ino        wafl.Inum
	seg, nsegs int
	pos        int  // file blocks in front of this chunk in its shard's plan
	first      bool // first chunk of its file: TSInode header
	last       bool // last chunk of its file: checkpoint accounting
}

// blocks is the number of file blocks the chunk spans; the last chunk
// of a file reads its final block in full.
func (j fileJob) blocks() int { return (j.nsegs + segsPerBlock - 1) / segsPerBlock }

// planFiles expands a shard's file slice into its chunk-job plan.
func planFiles(st *dumpState, files []wafl.Inum) []fileJob {
	var plan []fileJob
	pos := 0
	for _, ino := range files {
		inode := st.inodes[ino]
		totalSegs := int((inode.Size + dumpfmt.TPBSize - 1) / dumpfmt.TPBSize)
		if totalSegs == 0 {
			plan = append(plan, fileJob{ino: ino, pos: pos, first: true, last: true})
			continue
		}
		for seg := 0; seg < totalSegs; {
			n := min(totalSegs-seg, dumpfmt.MaxSegsPerHeader)
			j := fileJob{
				ino: ino, seg: seg, nsegs: n, pos: pos,
				first: seg == 0, last: seg+n >= totalSegs,
			}
			plan = append(plan, j)
			pos += j.blocks()
			seg += n
		}
	}
	return plan
}

// chunkRes is one staged chunk moving from a reader to the writer.
type chunkRes struct {
	addrs   *[]byte // pooled hole map, after salvage demotion; nil for an empty file
	buf     *[]byte // pooled segment data; nil for an empty file
	damaged []DamagedBlock
}

// stageChunk reads one chunk's hole map and present blocks into a
// pooled buffer BEFORE its header goes out — segment i of the chunk
// lives at buf[i*TPBSize:]. Contiguous runs of present blocks are
// pulled in with one bulk ReadAt each — out of the buffer cache when
// the dump's read-ahead (ra; nil when it is off) is running. A run that
// fails is salvaged block by block: a block the storage stack cannot
// produce even with retries and RAID reconstruction is demoted to a
// hole in addrs and recorded in the result's damage list, so the
// header's map and the segments that follow it always agree and the
// dump continues — logical backup degrades per file rather than per
// volume.
func stageChunk(ctx context.Context, st *dumpState, ra *readAhead, shard, seq int, j fileJob) (chunkRes, error) {
	var res chunkRes
	if j.nsegs == 0 {
		return res, nil
	}
	res.buf = bufpool.Get(j.blocks() * wafl.BlockSize)
	chunkBuf := *res.buf
	// At most MaxSegsPerHeader entries: the 1 KiB class. Pooled buffers
	// are stale, so every entry starts a hole.
	res.addrs = bufpool.Get(j.nsegs)
	addrs := *res.addrs
	clear(addrs)
	fail := func(err error) (chunkRes, error) {
		bufpool.Put(res.buf)
		bufpool.Put(res.addrs)
		res.buf, res.addrs = nil, nil
		return res, err
	}
	st.lockView()
	defer st.unlockView()
	if ra != nil {
		if err := ra.advance(ctx, shard, seq); err != nil {
			return fail(err)
		}
	}
	for i := 0; i < j.nsegs; i++ {
		fbn := uint32((j.seg + i) / segsPerBlock)
		pbn, err := st.view.BlockAt(ctx, j.ino, fbn)
		if err != nil {
			return fail(err)
		}
		if pbn != 0 {
			addrs[i] = 1
		}
	}
	for i := 0; i < j.nsegs; {
		if addrs[i] == 0 {
			i++
			continue
		}
		sIdx := j.seg + i
		fbn0 := sIdx / segsPerBlock
		// Extend the run while the next block is present and in this
		// chunk.
		nb := 1
		for nb < runBlocks {
			next := (fbn0+nb)*segsPerBlock - j.seg
			if next >= j.nsegs || addrs[next] == 0 {
				break
			}
			nb++
		}
		dst := chunkBuf[i*dumpfmt.TPBSize : i*dumpfmt.TPBSize+nb*wafl.BlockSize]
		if _, err := st.view.ReadAt(ctx, j.ino, uint64(fbn0)*wafl.BlockSize, dst); err != nil {
			// Salvage block by block; unreadable blocks demote to holes.
			// Cancellation is not damage: it aborts the shard.
			for b := 0; b < nb; b++ {
				fbn := fbn0 + b
				si := fbn*segsPerBlock - j.seg
				d := chunkBuf[si*dumpfmt.TPBSize : si*dumpfmt.TPBSize+wafl.BlockSize]
				_, rerr := st.view.ReadAt(ctx, j.ino, uint64(fbn)*wafl.BlockSize, d)
				if rerr == nil {
					continue
				}
				if cerr := ctx.Err(); cerr != nil {
					return fail(cerr)
				}
				for k := 0; k < segsPerBlock; k++ {
					if si+k < j.nsegs {
						addrs[si+k] = 0
					}
				}
				res.damaged = append(res.damaged, DamagedBlock{Ino: j.ino, Fbn: uint32(fbn), Err: rerr.Error()})
			}
		}
		i = (fbn0+nb)*segsPerBlock - j.seg
		if i > j.nsegs {
			i = j.nsegs
		}
	}
	if ra != nil {
		ra.shards[shard].staged += j.blocks()
	}
	return res, nil
}

// shardWriter writes one shard's stream on the process running the
// shard: the preamble when the readers have started, then each chunk as
// the fan-out delivers it in plan order. It accumulates the shard's
// outcome in res.
type shardWriter struct {
	st    *dumpState
	shard pipeline.Shard
	sink  stream.Sink
	plan  []fileJob
	w     *dumpfmt.Writer
	res   *ShardResult
	// ckptIno is the last inode durably checkpointed to media, possibly
	// inherited from the attempt this one resumes.
	ckptIno   wafl.Inum
	sinceCkpt int
}

// open starts the stream: label header, the two maps the format
// prescribes — inodes free at dump time (TS_CLRI) and inodes in the
// dump (TS_BITS) — and Phase III, every directory in ascending inode
// order. Every stream carries the full maps and all directories, so
// each is self-contained enough for restore to map names on its own;
// restore tolerates TS_BITS naming files that arrive on sibling streams.
func (sw *shardWriter) open(ctx context.Context) error {
	st := sw.st
	w, err := dumpfmt.NewWriter(sw.sink, st.opts.Label, st.date, st.ddate, int32(st.opts.Level))
	if err != nil {
		return err
	}
	sw.w = w
	root := uint32(st.rootIno)
	clri, bits := st.clri.Bytes(), st.dump.Bytes()
	if err := w.WriteBlob(dumpfmt.TSClri, root, dumpfmt.DumpInode{Size: uint64(len(clri))}, clri); err != nil {
		return err
	}
	if err := w.WriteBlob(dumpfmt.TSBits, root, dumpfmt.DumpInode{Size: uint64(len(bits))}, bits); err != nil {
		return err
	}
	for i, ino := range st.dirInos {
		if err := ctx.Err(); err != nil {
			return err
		}
		data := st.dirBlobs[i]
		inode := st.inodes[ino]
		di := toDumpInode(&inode)
		di.Size = uint64(len(data))
		if err := w.WriteBlob(dumpfmt.TSInode, uint32(ino), di, data); err != nil {
			return err
		}
	}
	return nil
}

// writeChunk writes one staged chunk under a TSInode header, or TSAddr
// past a file's first: the staged buffer ends where the file does.
func (sw *shardWriter) writeChunk(j fileJob, res chunkRes) error {
	inode := sw.st.inodes[j.ino]
	t := int32(dumpfmt.TSInode)
	if !j.first {
		t = dumpfmt.TSAddr
	}
	var addrs, data []byte
	if res.buf != nil {
		addrs = *res.addrs
		data = (*res.buf)[:min(uint64(j.nsegs)*dumpfmt.TPBSize, inode.Size-uint64(j.seg)*dumpfmt.TPBSize)]
	}
	return sw.w.WriteMapped(t, uint32(j.ino), toDumpInode(&inode), addrs, data)
}

// emit writes Phase IV chunk seq, checkpointing after every
// CheckpointEvery completed files.
func (sw *shardWriter) emit(seq int, c chunkRes) error {
	st, w := sw.st, sw.w
	opts := &st.opts
	j := sw.plan[seq]
	if err := sw.writeChunk(j, c); err != nil {
		return err
	}
	// Damage reports fold in here, in stream order, so the report is
	// deterministic for any reader count.
	for _, d := range c.damaged {
		sw.res.Damaged = append(sw.res.Damaged, d)
		if opts.Log != nil {
			st.log(fmt.Sprintf("ino %d fbn %d unreadable, hole-mapped: %s", d.Ino, d.Fbn, d.Err))
		}
	}
	if !j.last {
		return nil
	}
	sw.res.FilesDumped++
	sw.sinceCkpt++
	if opts.CheckpointEvery > 0 && sw.sinceCkpt >= opts.CheckpointEvery {
		if err := w.Checkpoint(uint32(j.ino)); err != nil {
			return err
		}
		// A sink that accepts records provisionally must confirm
		// durability before the checkpoint may vouch for this file.
		if err := stream.Sync(sw.sink); err != nil {
			return err
		}
		sw.ckptIno = j.ino
		sw.sinceCkpt = 0
	}
	return nil
}

// newShardWriter plans stream s: its slice of the file list, less the
// files a resume checkpoint vouches for, expanded into chunks.
func newShardWriter(st *dumpState, s pipeline.Stream[Checkpoint]) *shardWriter {
	sw := &shardWriter{st: st, shard: s.Shard, sink: s.Sink, res: &ShardResult{Shard: s.Shard.K}}
	lo, hi := s.Shard.Slice(len(st.fileInos))
	files := st.fileInos[lo:hi]
	if s.Resume != nil {
		sw.ckptIno = s.Resume.LastIno
		skip := sort.Search(len(files), func(i int) bool { return files[i] > sw.ckptIno })
		sw.res.FilesSkipped = skip
		files = files[skip:]
	}
	sw.plan = planFiles(st, files)
	return sw
}

// dumpShard runs the dump's k-th stream to completion on the calling
// process. The error stays in the ShardResult, always with the
// checkpoint to resume from (LastIno 0 when nothing is durable yet), so
// sibling shards are unaffected.
func (st *dumpState) dumpShard(ctx context.Context, k int, sw *shardWriter, ra *readAhead) ShardResult {
	res := sw.res
	fan := pipeline.Fanout[chunkRes]{
		Name: fmt.Sprintf("logical.shard%d", sw.shard.K), N: len(sw.plan), Readers: st.opts.Readers,
		Stage: func(ctx context.Context, _, seq int) (chunkRes, error) {
			return stageChunk(ctx, st, ra, k, seq, sw.plan[seq])
		},
		Open: func() error { return sw.open(ctx) },
		Emit: sw.emit,
		Release: func(c chunkRes) {
			bufpool.Put(c.buf)
			bufpool.Put(c.addrs)
		},
	}
	err := fan.Run(ctx)
	if ra != nil {
		ra.done(k)
	}
	if err == nil {
		err = sw.w.Close()
	}
	if err != nil {
		res.Err = err
		res.Checkpoint = &Checkpoint{
			Date: st.date, Level: st.opts.Level, LastIno: sw.ckptIno,
			Shard: sw.shard.K, Shards: sw.shard.N,
		}
		return *res
	}
	res.BytesWritten = sw.w.Written()
	return *res
}

// dumpShards is the Phase III/IV driver: directories are read and
// encoded once, so only Phase IV touches the filesystem concurrently,
// then every stream's shard runs.
func (st *dumpState) dumpShards(ctx context.Context, streams []pipeline.Stream[Checkpoint], begin func(string), end func()) (*DumpStats, error) {
	opts := &st.opts
	stats := &DumpStats{Date: st.date, BaseDate: st.ddate, InodesMapped: st.used.Count()}
	st.stats = stats
	st.untimed = sim.ProcFrom(ctx) == nil

	begin("Dumping directories")
	st.dirBlobs = make([][]byte, len(st.dirInos))
	for i, ino := range st.dirInos {
		if err := ctx.Err(); err != nil {
			end()
			return stats, err
		}
		ents, err := st.view.Readdir(ctx, ino)
		if err != nil {
			end()
			return stats, err
		}
		// Apply the exclusion filter to the entry list too, so restore
		// never learns about filtered names.
		kept := ents[:0]
		for _, e := range ents {
			if e.Name != "." && e.Name != ".." && opts.Exclude != nil && opts.Exclude(e.Name) {
				continue
			}
			kept = append(kept, e)
		}
		st.dirBlobs[i] = encodeDirEnts(kept)
	}
	stats.DirsDumped = len(st.dirInos)
	end()

	begin("Dumping files")
	// Every stream is planned before any runs, so the read-ahead can
	// issue for all of them at once.
	writers := make([]*shardWriter, len(streams))
	plans := make([][]fileJob, len(streams))
	for k, s := range streams {
		writers[k] = newShardWriter(st, s)
		plans[k] = writers[k].plan
	}
	var ra *readAhead
	if opts.ReadAhead > 0 {
		ra = newReadAhead(ctx, st, plans)
	}
	results := make([]ShardResult, len(streams))
	pipeline.RunShards(ctx, "logical", streams, func(ctx context.Context, k int, _ pipeline.Stream[Checkpoint]) {
		results[k] = st.dumpShard(ctx, k, writers[k], ra)
	})
	end()

	stats.ShardResults = results
	var errs []error
	for k := range results {
		r := &results[k]
		stats.FilesDumped += r.FilesDumped
		stats.FilesSkipped += r.FilesSkipped
		stats.BytesWritten += r.BytesWritten
		stats.Damaged = append(stats.Damaged, r.Damaged...)
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", r.Shard, r.Err))
		}
	}
	if len(errs) > 0 {
		if opts.Sink != nil {
			// Single-stream contract: the bare error, and the resume
			// checkpoint at the stats top level.
			stats.Checkpoint = results[0].Checkpoint
			return stats, results[0].Err
		}
		return stats, errors.Join(errs...)
	}
	if opts.Dates != nil {
		opts.Dates.Record(opts.FSID, opts.Level, st.date)
	}
	m := obs.MetricsFrom(ctx)
	l := obs.Labels{"fsid": opts.FSID}
	m.Counter("logical_dump_files_total", l).Add(int64(stats.FilesDumped))
	m.Counter("logical_dump_dirs_total", l).Add(int64(stats.DirsDumped))
	m.Counter("logical_dump_bytes_total", l).Add(stats.BytesWritten)
	m.Counter("logical_dump_damaged_blocks_total", l).Add(int64(len(stats.Damaged)))
	return stats, nil
}
