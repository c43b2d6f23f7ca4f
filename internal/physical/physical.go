// Package physical implements the paper's physical (block-based)
// backup strategy: WAFL image dump and restore (§4).
//
// Image dump copies the used disk blocks of a snapshot, in ascending
// block order, to the backup medium — "without interpretation (or with
// a minimum of interpretation)". It uses the filesystem only to read
// the snapshot's frozen block map; the data itself moves through the
// raw volume (the RAID layer), bypassing the filesystem, the buffer
// cache and NVRAM. Snapshot bit planes make incremental image dumps a
// set difference of two block maps (the paper's Table 1), and because
// the dumped map covers every older snapshot's world too, "the system
// you restore looks just like the system you dumped, snapshots and
// all".
//
// Image restore writes blocks straight back to a raw volume and
// finishes by installing a composed root structure. The stream is
// non-portable by design: restore demands a volume at least as large
// as the source and, for incrementals, the exact base generation.
package physical

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/bufpool"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/wafl"
)

// Stream geometry and identity.
const (
	// Magic identifies an image stream.
	Magic = "WAFLIMG2"
	// RecordBlocks is how many 4 KB blocks of payload go into one tape
	// record: image dump streams in large records to keep the drive at
	// speed.
	RecordBlocks = 15
	// EndSentinel marks the stream trailer extent; its count field
	// carries the payload checksum.
	EndSentinel = 0xFFFFFFFF
	// CkptSentinel marks a checkpoint extent: everything before it is
	// durably on media and its count field carries the running payload
	// checksum, so an interrupted stream is verifiable up to its last
	// checkpoint.
	CkptSentinel = 0xFFFFFFFE
)

// Errors.
var (
	ErrBadStream   = errors.New("physical: malformed image stream")
	ErrGeometry    = errors.New("physical: target volume too small for image")
	ErrWrongBase   = errors.New("physical: incremental does not match target state")
	ErrNotIncrem   = errors.New("physical: stream is not an incremental")
	ErrBadChecksum = errors.New("physical: stream checksum mismatch")
)

// Costs is the CPU model for the physical path: a single per-block
// charge, far below the logical path's, because no metadata is
// interpreted (paper Table 3: 5% vs 25% CPU).
type Costs struct {
	CPU       *sim.Station
	DumpBlock time.Duration // per block dumped
	RestBlock time.Duration // per block restored
}

// DefaultCosts returns the calibrated physical-path CPU model, from
// the paper's stage utilizations: image dump at ~5% CPU and 8.6 MB/s
// is ~23 µs per block; image restore at ~11% and 8.8 MB/s is ~50 µs.
func DefaultCosts() Costs {
	return Costs{DumpBlock: 23 * time.Microsecond, RestBlock: 50 * time.Microsecond}
}

func (c *Costs) charge(ctx context.Context, d time.Duration) {
	if c == nil || c.CPU == nil || d <= 0 {
		return
	}
	if p := sim.ProcFrom(ctx); p != nil {
		c.CPU.Sync(p, d)
	}
}

// schedule reserves d of CPU time and returns its completion time
// without blocking. The dump readers use it so one extent's
// checksum/copy work overlaps the next extent's disk time; the reader
// folds the returned time into its next wait, which is what paces it
// when the CPU saturates.
func (c *Costs) schedule(ctx context.Context, d time.Duration) sim.Time {
	if c == nil || c.CPU == nil || d <= 0 {
		return 0
	}
	if p := sim.ProcFrom(ctx); p != nil {
		return c.CPU.Schedule(p, d)
	}
	return 0
}

// DumpOptions configures an image dump.
type DumpOptions struct {
	// FS supplies block-map and snapshot-table access only.
	FS *wafl.FS
	// Vol is the raw volume the blocks are read from, bypassing FS.
	Vol storage.Device
	// SnapName is the snapshot to dump.
	SnapName string
	// BaseSnapName, when set, makes this an incremental image dump:
	// only blocks in SnapName's world but not in BaseSnapName's world
	// are written (Table 1 semantics).
	BaseSnapName string
	// Sink receives the stream of a single-stream dump: shorthand for a
	// one-element Sinks whose failure comes back bare, with the resume
	// checkpoint in DumpStats.Checkpoint. Mutually exclusive with Sinks.
	Sink stream.Sink
	// Sinks fans one Dump call out across parallel tape drives: shard
	// k of len(Sinks) writes the k-th contiguous slice of the block
	// set to Sinks[k] as its own self-contained stream (§5.2: "for
	// physical dump, we dumped the home volume to multiple tape
	// devices in parallel"), all shards streaming concurrently on the
	// internal pipeline. Restore applies the shard streams in any
	// order. A shard failure does not abort its siblings: the other
	// shards run to completion and the failed shard's checkpoint comes
	// back in ShardResults, to be resumed on its own (Sink + Resume).
	Sinks []stream.Sink
	// Readers is the number of parallel block readers per stream
	// (default 1). Readers pull extents off a shared plan and the
	// stream is written in plan order, so the bytes on tape do not
	// depend on Readers.
	Readers int
	// ReadAhead is how many extent reads each reader keeps in flight
	// on the volume's async bulk path (default 1, i.e. none). Higher
	// values keep the spindle queues full across the reader's CPU
	// time.
	ReadAhead int
	// Costs is the CPU model; zero value charges nothing.
	Costs Costs
	// CheckpointEvery emits a durable checkpoint extent after every N
	// blocks, making the dump restartable (the paper's §4 restarts
	// image dumps at tape boundaries). 0 disables checkpoints.
	CheckpointEvery int
	// Resume continues one interrupted stream onto Sink from the
	// checkpoint a failed Dump returned — DumpStats.Checkpoint of a
	// single-stream dump, or one shard's ShardResults[k].Checkpoint of
	// a parallel one, whose slice of the block set the checkpoint
	// names. The block set is recomputed from the same (frozen)
	// snapshots and the slice's first BlocksDone entries are skipped.
	Resume *Checkpoint
}

// Checkpoint is the durable progress of an interrupted image dump. The
// block set of a snapshot pair is deterministic, so a count of blocks
// already on media — plus which contiguous shard of the set this
// stream carries — is a complete resume point.
type Checkpoint struct {
	Gen        uint64
	BaseGen    uint64
	BlocksDone int // blocks of this shard durably on media
	// Shard/Shards name the slice of the block set the stream carries
	// (slice Shard of Shards; both zero for a single stream that is not
	// one of a set), so a resume redumps exactly that slice.
	Shard  int
	Shards int
}

// ShardResult is one stream's outcome within a dump.
type ShardResult struct {
	Shard         int
	BlocksDumped  int
	BlocksSkipped int // already on media per the resume checkpoint
	BytesWritten  int64
	// Checkpoint is set (alongside a non-nil Err) when the shard
	// aborted: its last durable checkpoint, BlocksDone 0 when nothing
	// was durable yet.
	Checkpoint *Checkpoint
	// Err is the shard's failure, nil when the shard completed.
	Err error
}

// DumpStats reports what an image dump did. For a parallel dump the
// top-level counters aggregate across shards and ShardResults carries
// the per-shard detail.
type DumpStats struct {
	BlocksDumped  int
	BlocksSkipped int // already on media per the resume checkpoint
	BytesWritten  int64
	Gen           uint64
	BaseGen       uint64
	// NBlocks is the source volume geometry, recorded in the stream
	// header; the backup catalog keeps it so a restore can size its
	// target volume without mounting any media.
	NBlocks uint64
	// Checkpoint is set (alongside a non-nil error) when a
	// single-stream (Sink) dump aborted mid-stream: the point to Resume
	// from, BlocksDone 0 when nothing was durable yet. Nil on success.
	Checkpoint *Checkpoint
	// ShardResults is the per-shard outcome, one entry per stream
	// (one for a single-stream dump, len(Sinks) for a parallel one).
	ShardResults []ShardResult
}

// streamHeader is the fixed preamble of an image stream.
type streamHeader struct {
	nblocks    uint64
	gen        uint64
	baseGen    uint64 // 0 for a full dump
	blockCount uint64
	root       []byte // composed fsinfo image
}

const headerFixed = 8 + 4 + 8 + 8 + 8 + 8 + 4 // magic, ver, nblocks, gen, baseGen, count, rootLen

func (h *streamHeader) marshal() []byte {
	buf := make([]byte, headerFixed+len(h.root))
	copy(buf, Magic)
	le := binary.LittleEndian
	le.PutUint32(buf[8:], 1)
	le.PutUint64(buf[12:], h.nblocks)
	le.PutUint64(buf[20:], h.gen)
	le.PutUint64(buf[28:], h.baseGen)
	le.PutUint64(buf[36:], h.blockCount)
	le.PutUint32(buf[44:], uint32(len(h.root)))
	copy(buf[headerFixed:], h.root)
	return buf
}

// maxRun bounds one device visit: 2 MB of consecutive blocks.
const maxRun = 512

// Dump writes the image stream for opts.SnapName — to opts.Sink as a
// single stream, or fanned out across opts.Sinks with one concurrent
// shard per drive. Either way the blocks move through the one shard
// data path: parallel block readers feed the stream writer in plan
// order.
func Dump(ctx context.Context, opts DumpOptions) (*DumpStats, error) {
	if opts.FS == nil || opts.Vol == nil {
		return nil, fmt.Errorf("physical: nil fs or volume")
	}
	streams, err := pipeline.Streams(opts.Sink, opts.Sinks, opts.Resume,
		func(c *Checkpoint) pipeline.Shard { return pipeline.Shard{K: c.Shard, N: c.Shards} })
	if err != nil {
		return nil, fmt.Errorf("physical: %w", err)
	}

	ctx, dumpSpan := obs.Start(ctx, "physical.dump")
	defer dumpSpan.End()
	snap, err := opts.FS.Snapshot(opts.SnapName)
	if err != nil {
		return nil, err
	}
	words, err := opts.FS.SnapshotBlockMapWords(ctx, opts.SnapName)
	if err != nil {
		return nil, err
	}

	var baseWords []uint32
	var baseGen uint64
	if opts.BaseSnapName != "" {
		base, err := opts.FS.Snapshot(opts.BaseSnapName)
		if err != nil {
			return nil, err
		}
		if base.Gen >= snap.Gen {
			return nil, fmt.Errorf("physical: base %q is not older than %q", opts.BaseSnapName, opts.SnapName)
		}
		baseWords, err = opts.FS.SnapshotBlockMapWords(ctx, opts.BaseSnapName)
		if err != nil {
			return nil, err
		}
		baseGen = base.Gen
	}

	// Block selection: every block in the snapshot's world; for an
	// incremental, minus every block in the base's world — exactly the
	// bitmap set difference of the paper's §4.1.
	all := IncrementalBlocks(words, baseWords)

	// A resumed shard recomputes the same deterministic block set (the
	// snapshots are frozen) and skips what its checkpoint vouches for.
	// Validate every resume before any tape moves.
	for _, st := range streams {
		r := st.Resume
		if r == nil {
			continue
		}
		if r.Gen != snap.Gen || r.BaseGen != baseGen {
			return nil, fmt.Errorf("physical: resume checkpoint is for gen %d/base %d, dump is gen %d/base %d",
				r.Gen, r.BaseGen, snap.Gen, baseGen)
		}
		if lo, hi := st.Shard.Slice(len(all)); r.BlocksDone > hi-lo {
			return nil, fmt.Errorf("physical: resume checkpoint claims %d of %d blocks", r.BlocksDone, hi-lo)
		}
	}

	older, err := opts.FS.SnapshotsBefore(opts.SnapName)
	if err != nil {
		return nil, err
	}
	root, err := wafl.ComposeRestoreRoot(uint64(len(words)), snap, older)
	if err != nil {
		return nil, err
	}
	hdr := streamHeader{
		nblocks: uint64(len(words)),
		gen:     snap.Gen,
		baseGen: baseGen,
		root:    root,
	}

	stats := &DumpStats{Gen: snap.Gen, BaseGen: baseGen, NBlocks: uint64(len(words))}
	results := make([]ShardResult, len(streams))
	pipeline.RunShards(ctx, "physical", streams, func(ctx context.Context, k int, st pipeline.Stream[Checkpoint]) {
		results[k] = dumpShard(ctx, &opts, st, all, hdr)
	})

	stats.ShardResults = results
	var errs []error
	for k := range results {
		r := &results[k]
		stats.BlocksDumped += r.BlocksDumped
		stats.BlocksSkipped += r.BlocksSkipped
		stats.BytesWritten += r.BytesWritten
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
	dumpSpan.SetAttr("blocks", stats.BlocksDumped)
	dumpSpan.SetAttr("bytes", stats.BytesWritten)
	dumpSpan.SetAttr("gen", stats.Gen)
	dumpSpan.SetAttr("shards", len(streams))
	m := obs.MetricsFrom(ctx)
	l := obs.Labels{"snap": opts.SnapName}
	m.Counter("physical_dump_blocks_total", l).Add(int64(stats.BlocksDumped))
	m.Counter("physical_dump_bytes_total", l).Add(stats.BytesWritten)
	return stats, nil
}

// IncrementalBlocks computes the dump set from two snapshot block
// maps: blocks used in the target's world (word != 0) and not used in
// the base's world — the paper's Table 1. baseWords nil means a full
// dump (everything used in the target). The fixed fsinfo region is
// excluded: restore writes the composed root itself.
func IncrementalBlocks(words, baseWords []uint32) []uint32 {
	var out []uint32
	for b, w := range words {
		if b < wafl.FsinfoReserved {
			continue
		}
		if w == 0 {
			continue
		}
		if baseWords != nil && b < len(baseWords) && baseWords[b] != 0 {
			continue // in the base: unchanged or deleted, not needed
		}
		out = append(out, uint32(b))
	}
	return out
}

// streamWriter chunks a byte stream into fixed-size tape records,
// switching volumes on end-of-media. The record buffer is pooled and
// filled in place: steady-state record emission allocates nothing.
type streamWriter struct {
	sink    stream.Sink
	rec     *[]byte // pooled backing, recSize long
	n       int     // bytes pending in rec
	written int64
}

const recSize = RecordBlocks * storage.BlockSize

func newStreamWriter(sink stream.Sink) *streamWriter {
	return &streamWriter{sink: sink, rec: bufpool.Get(recSize)}
}

func (w *streamWriter) write(p []byte) error {
	for len(p) > 0 {
		c := copy((*w.rec)[w.n:recSize], p)
		w.n += c
		p = p[c:]
		if w.n == recSize {
			if err := w.emit((*w.rec)[:recSize]); err != nil {
				return err
			}
			w.n = 0
		}
	}
	return nil
}

func (w *streamWriter) emit(rec []byte) error {
	for {
		err := w.sink.WriteRecord(rec)
		if err == nil {
			w.written += int64(len(rec))
			return nil
		}
		if !errors.Is(err, stream.ErrEndOfMedia) {
			return err
		}
		if err := w.sink.NextVolume(); err != nil {
			return fmt.Errorf("physical: volume change: %w", err)
		}
	}
}

// flushPartial emits any pending partial record immediately — the
// durability point behind checkpoint extents — leaving the writer
// usable. The next record starts fresh; readers reassemble the byte
// stream regardless of record boundaries.
func (w *streamWriter) flushPartial() error {
	if w.n == 0 {
		return nil
	}
	if err := w.emit((*w.rec)[:w.n]); err != nil {
		return err
	}
	w.n = 0
	return nil
}

// release recycles the record buffer; the writer must not be used
// afterwards.
func (w *streamWriter) release() {
	bufpool.Put(w.rec)
	w.rec = nil
}
