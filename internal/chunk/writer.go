package chunk

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stream"
)

// WriterStats counts one stream's dedup outcomes.
type WriterStats struct {
	Chunks   int64 // chunks the stream split into
	Hits     int64 // chunks already on media (writes skipped)
	Misses   int64 // new chunks stored
	Rewrites int64 // reverse mode: old-set hits rewritten to current media

	RawBytes    int64 // logical stream bytes
	HitBytes    int64 // raw bytes not written thanks to dedup
	StoredBytes int64 // bytes appended to media (after compression)

	CompressedChunks int64 // stored deflated
	RawChunks        int64 // stored raw (incompressible)
}

// ContainerBytes bounds the media record a Writer appends: stored
// chunks are packed back to back into a container of at most this many
// bytes, which goes to media as one record, so the drive's fixed
// per-record cost is paid once per container rather than once per
// chunk. A stored chunk is never larger than the splitter's Max (32
// KiB), so one always fits an empty container.
const ContainerBytes = 64 << 10

// WriterOptions configures a dedup Writer.
type WriterOptions struct {
	// Index is the chunk index (the backup catalog).
	Index Index
	// Media is where new chunks are appended.
	Media Media
	// Reverse selects RevDedup: a hit against an older set is
	// rewritten to current media and the index entry superseded, so
	// this stream stays contiguous and restores at streaming rate,
	// while older manifests transparently redirect to the new copy.
	// Off (forward dedup), hits skip media writes entirely.
	Reverse bool
	// Ctx supplies the obs metrics registry (may be nil/background).
	Ctx context.Context
	// Engine labels the obs series ("logical", "image", ...).
	Engine string
}

// Writer is a dedup-compressing stream.Sink: it splits the incoming
// dump stream into content-defined chunks, skips chunks the index
// already holds, compresses and stores the rest, and accumulates the
// stream's manifest. Close returns the manifest; the caller journals
// it (catalog.AppendManifest) alongside the dump set.
//
// Stored chunks are packed into a container (see ContainerBytes) that
// is sealed — appended to media as one record — when the next chunk
// would not fit, at Sync and at Close. Sync (the stream.Syncer hook the
// engines call after checkpoint markers) seals, flushes media and
// journals the entries staged so far, so a crash mid-dump leaves every
// journaled chunk reusable: the retry's dedup hits skip exactly the
// work already done, and no entry is journaled before its container's
// append has returned. The manifest itself is journaled only at
// completion — a torn dedup dump has no set, and its orphaned chunks
// are zero-ref until the retry claims them (or a sweep erases them).
//
// A failed append loses the open container's chunks, which the stream
// already references, so the Writer then refuses further writes and
// Close; Sync still journals the chunks sealed before the failure.
type Writer struct {
	split   *Splitter
	index   Index
	media   Media
	reverse bool

	staged   []Entry       // stored but not yet journaled; staged[sealed:] are in the open container
	sealed   int           // staged entries whose container is on media
	cont     *[]byte       // the open container, from bufpool at the first stored chunk
	own      map[Hash]bool // hashes referenced by this stream already
	manifest Manifest
	stats    WriterStats
	closed   bool
	err      error        // the media failure that lost the open container
	zbuf     bytes.Buffer // deflate output of the chunk being stored; packing copies it

	mHits, mMisses, mSaved, mRaw, mStored, mRewrites *obs.Counter
}

// NewWriter creates a dedup writer. Index and Media are required.
func NewWriter(opts WriterOptions) (*Writer, error) {
	if opts.Index == nil || opts.Media == nil {
		return nil, errors.New("chunk: NewWriter needs an Index and a Media")
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	m := obs.MetricsFrom(ctx)
	l := obs.Labels{"engine": opts.Engine}
	return &Writer{
		split:     NewSplitter(DefaultParams()),
		index:     opts.Index,
		media:     opts.Media,
		reverse:   opts.Reverse,
		own:       make(map[Hash]bool),
		mHits:     m.Counter("chunk_hits_total", l),
		mMisses:   m.Counter("chunk_misses_total", l),
		mSaved:    m.Counter("chunk_bytes_saved_total", l),
		mRaw:      m.Counter("chunk_raw_bytes_total", l),
		mStored:   m.Counter("chunk_stored_bytes_total", l),
		mRewrites: m.Counter("chunk_rewrites_total", l),
	}, nil
}

// WriteRecord implements stream.Sink: the record
// joins the chunking stream. Chunk media manages its own volumes, so
// end-of-media never surfaces to the engine.
func (w *Writer) WriteRecord(data []byte) error {
	if w.closed {
		return errors.New("chunk: write on closed Writer")
	}
	if w.err != nil {
		return w.err
	}
	return w.split.Write(data, w.onChunk)
}

// NextVolume implements stream.Sink. Chunk media spans volumes
// internally, so the engine never sees end-of-media and this is only
// reachable through engine-driven volume policies; it is a no-op.
func (w *Writer) NextVolume() error { return nil }

// BindProc forwards stream.ProcBinder to the chunk media (DriveMedia
// charges tape time to a bound process).
func (w *Writer) BindProc(p *sim.Proc) *sim.Proc { return stream.BindProc(w.media, p) }

// Sync implements stream.Syncer: seal the open container, flush chunk
// media, then journal the staged index entries. Called by both engines
// after checkpoint markers. The partial chunk still in the splitter is
// intentionally NOT forced out — cutting at checkpoint offsets would
// make chunk boundaries depend on checkpoint cadence and wreck
// cross-set dedup; a torn dump redoes from scratch anyway (cheaply,
// via hits).
func (w *Writer) Sync() error {
	if err := w.seal(); err != nil {
		return err
	}
	if err := stream.Sync(w.media); err != nil {
		return err
	}
	if len(w.staged) == 0 {
		return nil
	}
	if err := w.index.CommitChunks(w.staged); err != nil {
		return err
	}
	w.staged, w.sealed = w.staged[:0], 0
	return nil
}

// Close cuts the final chunk, journals remaining entries and returns
// the stream's manifest.
func (w *Writer) Close() (Manifest, error) {
	if w.closed {
		return Manifest{}, errors.New("chunk: Close on closed Writer")
	}
	w.closed = true
	defer w.split.Close()
	defer w.release()
	if w.err != nil {
		return Manifest{}, w.err
	}
	if err := w.split.Flush(w.onChunk); err != nil {
		return Manifest{}, err
	}
	if err := w.Sync(); err != nil {
		return Manifest{}, err
	}
	return w.manifest, nil
}

// release hands the container buffer back to bufpool.
func (w *Writer) release() {
	bufpool.Put(w.cont)
	w.cont = nil
}

// Stats returns the stream's dedup counters so far.
func (w *Writer) Stats() WriterStats { return w.stats }

// onChunk dedups, compresses and stores one chunk.
func (w *Writer) onChunk(data []byte) error {
	h := Sum(data)
	n := int64(len(data))
	w.stats.Chunks++
	w.stats.RawBytes += n
	w.mRaw.Add(n)
	w.manifest.Refs = append(w.manifest.Refs, Ref{Hash: h, RawLen: uint32(len(data))})
	w.manifest.RawBytes += n

	if w.own[h] {
		// Seen earlier in this same stream: always a pure hit — the
		// copy is already on current media (or staged for it).
		w.hit(n)
		return nil
	}
	if _, ok := w.index.LookupChunk(h); ok {
		if !w.reverse {
			w.own[h] = true
			w.hit(n)
			return nil
		}
		// Reverse dedup: rewrite the chunk into this stream's media
		// region. The superseding index entry redirects every older
		// manifest here, the old copy becomes dead bytes, and this —
		// the newest — stream stays contiguous.
		w.stats.Rewrites++
		w.mRewrites.Inc()
		return w.store(h, data)
	}
	w.stats.Misses++
	w.mMisses.Inc()
	return w.store(h, data)
}

// hit accounts one dedup hit of n raw bytes.
func (w *Writer) hit(n int64) {
	w.stats.Hits++
	w.stats.HitBytes += n
	w.mHits.Inc()
	w.mSaved.Add(n)
}

// store compresses one new (or rewritten) chunk and packs it into the
// open container, sealing the container first when the chunk would not
// fit.
func (w *Writer) store(h Hash, data []byte) error {
	stored := data
	compressed := false
	if c := compress(&w.zbuf, data); c != nil {
		stored = c
		compressed = true
		w.stats.CompressedChunks++
	} else {
		w.stats.RawChunks++
	}
	if w.cont == nil {
		w.cont = bufpool.Get(ContainerBytes)
		*w.cont = (*w.cont)[:0]
	}
	if len(*w.cont)+len(stored) > ContainerBytes {
		if err := w.seal(); err != nil {
			return err
		}
	}
	w.staged = append(w.staged, Entry{
		Hash:       h,
		RawLen:     uint32(len(data)),
		StoredLen:  uint32(len(stored)),
		Compressed: compressed,
		Loc:        Loc{Off: uint32(len(*w.cont))},
	})
	*w.cont = append(*w.cont, stored...)
	w.own[h] = true
	w.stats.StoredBytes += int64(len(stored))
	w.mStored.Add(int64(len(stored)))
	w.manifest.StoredBytes += int64(len(stored))
	return nil
}

// seal appends the open container to media as one record and gives its
// chunks the record's location. When the append fails, the container's
// chunks never reached media: their entries are dropped, so none is
// ever journaled, and the failure sticks (see Writer).
func (w *Writer) seal() error {
	if w.cont == nil || len(*w.cont) == 0 {
		return nil
	}
	loc, err := w.media.Append(*w.cont)
	*w.cont = (*w.cont)[:0]
	if err != nil {
		w.staged = w.staged[:w.sealed]
		w.err = fmt.Errorf("chunk: appending a container: %w", err)
		return w.err
	}
	for i := w.sealed; i < len(w.staged); i++ {
		w.staged[i].Loc.Volume, w.staged[i].Loc.Index = loc.Volume, loc.Index
	}
	w.sealed = len(w.staged)
	return nil
}
