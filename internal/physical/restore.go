package physical

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"repro/internal/bufpool"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/wafl"
)

// RestoreOptions configures an image restore.
type RestoreOptions struct {
	// Vol is the raw target volume; writes bypass any filesystem and
	// NVRAM (the paper's stated reason image restore is fast).
	Vol storage.Device
	// Source supplies the stream. Mutually exclusive with Sources.
	Source stream.Source
	// Sources applies the shard streams of a parallel dump
	// concurrently, one restore stage per stream. Shard streams are
	// disjoint block sets and each carries the same composed root
	// (installed idempotently), so the result does not depend on shard
	// order or interleaving. Stats are summed across streams.
	Sources []stream.Source
	// Costs is the CPU model.
	Costs Costs
	// ExpectIncremental controls base checking: when applying an
	// incremental, the target's current root generation must equal the
	// stream's base generation. Full streams ignore the target.
	ExpectIncremental bool
	// Salvage tolerates a stream that ends without its trailer — what
	// an interrupted dump leaves on tape. Blocks up to the tear are
	// applied (checksum-verified up to the last checkpoint extent), the
	// root is NOT installed, and TornTail is set in the stats; a tear
	// inside the header (down to zero records) applies nothing. The
	// resumed dump's stream re-writes everything past the last
	// checkpoint and installs the root.
	Salvage bool
}

// RestoreStats reports what an image restore did.
type RestoreStats struct {
	BlocksRestored int
	BytesRead      int64
	Gen            uint64
	Checkpoints    int  // checkpoint extents seen (each checksum-verified)
	TornTail       bool // stream ended before its trailer; root not installed
}

// streamReader presents record-oriented input as a byte stream.
type streamReader struct {
	src  stream.Source
	buf  []byte
	pos  int
	read int64
}

func (r *streamReader) readFull(p []byte) error {
	n := 0
	for n < len(p) {
		if r.pos >= len(r.buf) {
			rec, err := r.src.ReadRecord()
			if err != nil {
				if err == io.EOF && n == 0 {
					return io.EOF
				}
				if err == io.EOF {
					return io.ErrUnexpectedEOF
				}
				return err
			}
			r.buf = rec
			r.pos = 0
			continue
		}
		c := copy(p[n:], r.buf[r.pos:])
		n += c
		r.pos += c
		r.read += int64(c)
	}
	return nil
}

// ReadHeader decodes the stream preamble without consuming block data,
// so callers can inspect a stream's identity (used by the extractor
// and by chain validation).
func readHeader(r *streamReader) (*streamHeader, error) {
	fixed := make([]byte, headerFixed)
	if err := r.readFull(fixed); err != nil {
		return nil, err
	}
	if string(fixed[:8]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadStream)
	}
	le := binary.LittleEndian
	if v := le.Uint32(fixed[8:]); v != 1 {
		return nil, fmt.Errorf("%w: version %d", ErrBadStream, v)
	}
	h := &streamHeader{
		nblocks:    le.Uint64(fixed[12:]),
		gen:        le.Uint64(fixed[20:]),
		baseGen:    le.Uint64(fixed[28:]),
		blockCount: le.Uint64(fixed[36:]),
	}
	rootLen := le.Uint32(fixed[44:])
	if rootLen == 0 || rootLen > 1<<20 {
		return nil, fmt.Errorf("%w: root length %d", ErrBadStream, rootLen)
	}
	h.root = make([]byte, rootLen)
	if err := r.readFull(h.root); err != nil {
		return nil, err
	}
	return h, nil
}

// Restore applies an image stream to opts.Vol: raw block writes in
// stream (ascending) order, then the composed root structure last, so
// an interrupted restore never presents a half-written root. With
// Sources set, the shard streams of a parallel dump are applied
// concurrently.
func Restore(ctx context.Context, opts RestoreOptions) (*RestoreStats, error) {
	if len(opts.Sources) > 0 {
		return restoreParallel(ctx, opts)
	}
	if opts.Vol == nil || opts.Source == nil {
		return nil, fmt.Errorf("physical: nil volume or source")
	}
	return restoreStream(ctx, opts, opts.Source, func(ctx context.Context) (uint64, error) {
		return readTargetGen(ctx, opts.Vol)
	})
}

// restoreStream reads, validates and applies one stream. targetGen
// supplies the target's current root generation for incremental base
// checking; it is only consulted when the header says incremental.
func restoreStream(ctx context.Context, opts RestoreOptions, src stream.Source, targetGen func(context.Context) (uint64, error)) (*RestoreStats, error) {
	r := &streamReader{src: src}
	h, err := readHeader(r)
	if err != nil {
		if opts.Salvage && (err == io.EOF || err == io.ErrUnexpectedEOF) {
			// Torn before the header completed (an opened stream whose
			// link died at once): nothing to apply.
			obs.MetricsFrom(ctx).Counter("restore_salvaged_streams_total",
				obs.Labels{"engine": "image"}).Inc()
			return &RestoreStats{BytesRead: r.read, TornTail: true}, nil
		}
		return nil, err
	}
	if uint64(opts.Vol.NumBlocks()) < h.nblocks {
		return nil, fmt.Errorf("%w: stream needs %d blocks, volume has %d",
			ErrGeometry, h.nblocks, opts.Vol.NumBlocks())
	}
	if h.baseGen != 0 != opts.ExpectIncremental {
		if h.baseGen != 0 {
			return nil, fmt.Errorf("%w: stream has base generation %d", ErrWrongBase, h.baseGen)
		}
		return nil, ErrNotIncrem
	}
	if h.baseGen != 0 {
		// Verify the target is exactly at the base state.
		cur, err := targetGen(ctx)
		if err != nil {
			return nil, fmt.Errorf("%w: cannot read target root: %v", ErrWrongBase, err)
		}
		if cur != h.baseGen {
			return nil, fmt.Errorf("%w: target at generation %d, incremental expects %d",
				ErrWrongBase, cur, h.baseGen)
		}
	}
	return restoreBody(ctx, opts.Vol, r, h, opts)
}

// restoreParallel applies the shard streams of a parallel dump
// concurrently, one stage per stream on a pipeline group. Streams are
// independent (disjoint extents, identical roots), so a stream failure
// does not cancel its siblings; Restore returns the joined errors.
func restoreParallel(ctx context.Context, opts RestoreOptions) (*RestoreStats, error) {
	if opts.Vol == nil {
		return nil, fmt.Errorf("physical: nil volume or source")
	}
	if opts.Source != nil {
		return nil, fmt.Errorf("physical: Source and Sources are mutually exclusive")
	}
	for _, s := range opts.Sources {
		if s == nil {
			return nil, fmt.Errorf("physical: nil source in Sources")
		}
	}
	// The base-generation check is hoisted before any stream starts: a
	// sibling shard that finishes first installs the new root, which
	// would flip the generation under a per-stream lazy check.
	var gen uint64
	if opts.ExpectIncremental {
		g, err := readTargetGen(ctx, opts.Vol)
		if err != nil {
			return nil, fmt.Errorf("%w: cannot read target root: %v", ErrWrongBase, err)
		}
		gen = g
	}
	hoisted := func(context.Context) (uint64, error) { return gen, nil }

	all := make([]*RestoreStats, len(opts.Sources))
	g := pipeline.NewGroup(ctx)
	for k := range opts.Sources {
		g.Go(fmt.Sprintf("physical.restore%d", k), func(ctx context.Context) error {
			defer stream.BindCtxProc(ctx, opts.Sources[k])()
			st, err := restoreStream(ctx, opts, opts.Sources[k], hoisted)
			if err != nil {
				return fmt.Errorf("stream %d: %w", k, err)
			}
			all[k] = st
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	merged := &RestoreStats{}
	for _, st := range all {
		merged.BlocksRestored += st.BlocksRestored
		merged.BytesRead += st.BytesRead
		merged.Checkpoints += st.Checkpoints
		merged.Gen = st.Gen
		if st.TornTail {
			merged.TornTail = true
		}
	}
	return merged, nil
}

// errTorn marks a stream that ends before its trailer — what an
// interrupted dump leaves on tape. Whether the blocks before the tear
// are worth keeping is the caller's decision (RestoreOptions.Salvage).
var errTorn = fmt.Errorf("%w: torn", ErrBadStream)

// extentWalk is what walkExtents saw up to where it stopped.
type extentWalk struct {
	extents     int
	checkpoints int // checkpoint extents, each checksum-verified
}

// walkExtents reads the body of a stream whose header h has been read:
// it bounds-checks every extent against the header's geometry, checks
// the running payload CRC at each checkpoint extent and at the
// trailer, and hands the blocks to run in stream order, at most
// maxRun at a time (data is valid only during the call). It stops
// after the trailer; a stream that ends first is an errTorn.
func walkExtents(r *streamReader, h *streamHeader, run func(start, n int, data []byte) error) (extentWalk, error) {
	const maxRun = 512
	var w extentWalk
	crc := crc32.NewIEEE()
	var ext [8]byte
	runBuf := bufpool.Get(maxRun * storage.BlockSize)
	defer bufpool.Put(runBuf)
	buf := *runBuf
	for {
		if err := r.readFull(ext[:]); err != nil {
			return w, fmt.Errorf("%w: missing trailer", errTorn)
		}
		start := binary.LittleEndian.Uint32(ext[0:])
		count := binary.LittleEndian.Uint32(ext[4:])
		if start == EndSentinel || start == CkptSentinel {
			// Trailer or checkpoint: verify the payload so far; carry no data.
			if crc.Sum32() != count {
				return w, ErrBadChecksum
			}
			if start == EndSentinel {
				return w, nil
			}
			w.checkpoints++
			continue
		}
		if uint64(start)+uint64(count) > h.nblocks || count == 0 {
			return w, fmt.Errorf("%w: extent %d+%d out of range", ErrBadStream, start, count)
		}
		w.extents++
		for b := uint32(0); b < count; {
			c := int(count - b)
			if c > maxRun {
				c = maxRun
			}
			chunk := buf[:c*storage.BlockSize]
			if err := r.readFull(chunk); err != nil {
				if err == io.EOF || err == io.ErrUnexpectedEOF {
					return w, fmt.Errorf("%w: mid-extent", errTorn)
				}
				return w, err
			}
			crc.Write(chunk)
			if err := run(int(start)+int(b), c, chunk); err != nil {
				return w, err
			}
			b += uint32(c)
		}
	}
}

// restoreBody applies the extents and root of a stream whose header
// has already been read and validated.
func restoreBody(ctx context.Context, vol storage.Device, r *streamReader, h *streamHeader, opts RestoreOptions) (*RestoreStats, error) {
	stats := &RestoreStats{Gen: h.gen}
	ctx, span := obs.Start(ctx, "physical.restore")
	defer func() {
		span.SetAttr("blocks", stats.BlocksRestored)
		span.SetAttr("bytes", stats.BytesRead)
		span.End()
	}()
	walk, err := walkExtents(r, h, func(start, n int, data []byte) error {
		if err := vol.WriteRun(ctx, start, n, data); err != nil {
			return err
		}
		opts.Costs.charge(ctx, time.Duration(n)*opts.Costs.RestBlock)
		stats.BlocksRestored += n
		return nil
	})
	stats.Checkpoints = walk.checkpoints
	if errors.Is(err, errTorn) && opts.Salvage {
		stats.TornTail = true
		stats.BytesRead = r.read
		span.SetAttr("torn_tail", true)
		obs.MetricsFrom(ctx).Counter("restore_salvaged_streams_total",
			obs.Labels{"engine": "image"}).Inc()
		return stats, nil
	}
	if err != nil {
		return nil, err
	}

	// Install the composed root last, redundantly across both fixed
	// locations.
	if len(h.root) != wafl.FsinfoSpan*storage.BlockSize {
		return nil, fmt.Errorf("%w: root image of %d bytes", ErrBadStream, len(h.root))
	}
	for copyStart := 0; copyStart < wafl.FsinfoReserved; copyStart += wafl.FsinfoSpan {
		for i := 0; i < wafl.FsinfoSpan; i++ {
			blk := h.root[i*storage.BlockSize : (i+1)*storage.BlockSize]
			if err := vol.WriteBlock(ctx, copyStart+i, blk); err != nil {
				return nil, err
			}
			opts.Costs.charge(ctx, opts.Costs.RestBlock)
		}
	}
	stats.BytesRead = r.read
	m := obs.MetricsFrom(ctx)
	m.Counter("physical_restore_blocks_total", nil).Add(int64(stats.BlocksRestored))
	m.Counter("physical_restore_bytes_total", nil).Add(stats.BytesRead)
	return stats, nil
}

// readTargetGen mounts nothing: it reads the target's current root
// directly to learn its generation for incremental-chain validation.
func readTargetGen(ctx context.Context, vol storage.Device) (uint64, error) {
	buf := make([]byte, wafl.FsinfoSpan*storage.BlockSize)
	for i := 0; i < wafl.FsinfoSpan; i++ {
		if err := vol.ReadBlock(ctx, i, buf[i*storage.BlockSize:(i+1)*storage.BlockSize]); err != nil {
			return 0, err
		}
	}
	return wafl.RootGeneration(buf)
}

// teeSource replays records consumed during a header peek before
// continuing with the live source.
type teeSource struct {
	buffered [][]byte
	pos      int
	src      stream.Source
}

func (t *teeSource) ReadRecord() ([]byte, error) {
	if t.pos < len(t.buffered) {
		r := t.buffered[t.pos]
		t.pos++
		return r, nil
	}
	return t.src.ReadRecord()
}

// StreamInfo reads an image stream's preamble without consuming the
// stream: it returns the source volume geometry and generations plus a
// Source that replays everything, so a caller can size a target volume
// before restoring (cmd/backupctl does this).
func StreamInfo(src stream.Source) (nblocks, gen, baseGen uint64, replay stream.Source, err error) {
	tee := &teeSource{}
	wrapped := &streamReader{src: recorderSource{src: src, into: &tee.buffered}}
	h, err := readHeader(wrapped)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	tee.src = src
	return h.nblocks, h.gen, h.baseGen, tee, nil
}

// recorderSource captures records as they are read. It keeps them past
// the source's next read, so it keeps copies.
type recorderSource struct {
	src  stream.Source
	into *[][]byte
}

func (r recorderSource) ReadRecord() ([]byte, error) {
	rec, err := r.src.ReadRecord()
	if err == nil {
		*r.into = append(*r.into, bytes.Clone(rec))
	}
	return rec, err
}
