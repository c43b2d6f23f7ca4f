package catalog

import (
	"fmt"
	"sort"

	"repro/internal/chunk"
	"repro/internal/codec"
	"repro/internal/obs"
)

// Chunk-layer journal records: the SHA-256 chunk index and per-set
// manifests of internal/chunk live in the same crash-safe journal as
// everything else, with the same CRC framing and torn-tail recovery.
//
//   - chunk-index (kind 7): a batch of newly stored chunks. Replay is
//     latest-wins per hash, which is the mechanism behind reverse
//     dedup: a superseding entry redirects every manifest that names
//     the hash to the new copy, without rewriting those manifests.
//   - set-manifest (kind 8): the ordered chunk refs reconstituting one
//     dump set's stream, journaled with the set itself at completion.
//   - chunk-erase (kind 9): hashes the sweep removed. Journaled BEFORE
//     media is touched, so a crash between the two leaves dead media
//     bytes, never a live reference to erased bytes.
//
// Refcounts are derived, not stored: a chunk is referenced iff a live
// (unexpired, journaled) manifest names it. That makes refcount state
// trivially consistent after any crash — it is a pure function of the
// recovered journal.

// Payload kinds (continuing catalog.go's 1-6).
const (
	kindChunkIndex = 7
	kindManifest   = 8
	kindChunkErase = 9
)

// chunkIndexPacked is the chunk-index record version that carries each
// entry's Loc.Off. Version 1, journaled before chunks were packed into
// containers, has no Off: every entry it holds is a record of its own,
// and it decodes with Off 0.
const chunkIndexPacked = 2

type chunkIndexRecord struct {
	Entries []chunk.Entry
}

type chunkManifestRecord struct {
	SetID uint64
	M     chunk.Manifest
}

type chunkEraseRecord struct {
	Hashes []chunk.Hash
}

func (chunkIndexRecord) isRecord()    {}
func (chunkManifestRecord) isRecord() {}
func (chunkEraseRecord) isRecord()    {}

// applyChunk folds chunk-layer records into the replayed state (called
// from apply).
func (c *Catalog) applyChunk(rec Record) {
	switch r := rec.(type) {
	case chunkIndexRecord:
		for _, e := range r.Entries {
			if old, ok := c.chunks[e.Hash]; ok {
				// Superseded (reverse dedup): the old copy is dead bytes.
				c.chunkStored -= int64(old.StoredLen)
				c.chunkDead += int64(old.StoredLen)
			}
			c.chunks[e.Hash] = e
			c.chunkStored += int64(e.StoredLen)
		}
	case chunkManifestRecord:
		c.manifests[r.SetID] = r.M
	case chunkEraseRecord:
		for _, h := range r.Hashes {
			if e, ok := c.chunks[h]; ok {
				c.chunkStored -= int64(e.StoredLen)
				c.chunkDead += int64(e.StoredLen)
				delete(c.chunks, h)
			}
		}
	}
}

// LookupChunk implements chunk.Lookup: the current stored location of
// a chunk.
func (c *Catalog) LookupChunk(h chunk.Hash) (chunk.Entry, bool) {
	e, ok := c.chunks[h]
	return e, ok
}

// CommitChunks implements chunk.Index: durably journal newly stored
// chunks (latest entry wins per hash). Batches are split to respect
// the journal's record bound.
func (c *Catalog) CommitChunks(entries []chunk.Entry) error {
	// ~64 bytes per entry plus volume strings; 64k entries stays far
	// under MaxRecord at any plausible volume-label length.
	const batch = 64 << 10
	for len(entries) > 0 {
		n := len(entries)
		if n > batch {
			n = batch
		}
		r := chunkIndexRecord{Entries: entries[:n]}
		if err := c.append(r, encodeChunkIndex(&r)); err != nil {
			return err
		}
		entries = entries[n:]
	}
	return nil
}

// AppendManifest journals a dump set's chunk manifest. Call it right
// after AppendDumpSet for a dedup-encoded set.
func (c *Catalog) AppendManifest(setID uint64, m chunk.Manifest) error {
	if _, ok := c.byID[setID]; !ok {
		return fmt.Errorf("catalog: manifest for unknown set %d", setID)
	}
	r := chunkManifestRecord{SetID: setID, M: m}
	return c.append(r, encodeChunkManifest(&r))
}

// Manifest returns the chunk manifest recorded for a set, if any: the
// marker that the set is dedup-encoded and must be restored through
// the chunk index.
func (c *Catalog) Manifest(setID uint64) (chunk.Manifest, bool) {
	m, ok := c.manifests[setID]
	return m, ok
}

// ChunkRefcounts derives every indexed chunk's reference count from
// the live (unexpired) manifests. Indexed chunks no manifest names —
// orphans of torn dumps, or survivors of expired sets — appear with
// count zero; those are what SweepChunks erases.
func (c *Catalog) ChunkRefcounts() map[chunk.Hash]int {
	refs := make(map[chunk.Hash]int, len(c.chunks))
	for h := range c.chunks {
		refs[h] = 0
	}
	for setID, m := range c.manifests {
		if _, dead := c.expired[setID]; dead {
			continue
		}
		for _, r := range m.Refs {
			if _, ok := refs[r.Hash]; ok {
				refs[r.Hash]++
			}
		}
	}
	return refs
}

// ChunkStats reports the chunk index's size: live entries, live
// stored bytes, and dead bytes (superseded or erased copies whose
// media space awaits volume reclaim).
func (c *Catalog) ChunkStats() (entries int, storedBytes, deadBytes int64) {
	return len(c.chunks), c.chunkStored, c.chunkDead
}

// ChunkVolumes returns the media volumes holding live indexed chunks.
// The media pool must not erase these, whatever the dump sets on them
// say: reverse dedup can leave an old volume hosting the only copy of
// a chunk that newer, unexpired sets reference.
func (c *Catalog) ChunkVolumes() map[string]bool {
	vols := make(map[string]bool)
	for _, e := range c.chunks {
		vols[e.Loc.Volume] = true
	}
	return vols
}

// SweepChunks erases zero-ref chunks: index entries no live manifest
// references. The erase record is journaled FIRST — once it is
// durable the chunks are logically gone — and only then is media
// asked to erase the bytes (via erase, typically a chunk media's
// Erase; may be nil to leave media reclaim to volume retirement). It returns
// the swept entries.
func (c *Catalog) SweepChunks(erase func(chunk.Entry) error) ([]chunk.Entry, error) {
	refs := c.ChunkRefcounts()
	var victims []chunk.Entry
	for h, n := range refs {
		if n == 0 {
			victims = append(victims, c.chunks[h])
		}
	}
	if len(victims) == 0 {
		return nil, nil
	}
	sort.Slice(victims, func(i, j int) bool {
		a, b := victims[i].Hash, victims[j].Hash
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	r := chunkEraseRecord{Hashes: make([]chunk.Hash, len(victims))}
	for i, v := range victims {
		r.Hashes[i] = v.Hash
	}
	if err := c.append(r, encodeChunkErase(&r)); err != nil {
		return nil, err
	}
	if erase != nil {
		for _, v := range victims {
			if err := erase(v); err != nil {
				return victims, fmt.Errorf("catalog: erasing swept chunk %s: %w", v.Hash, err)
			}
		}
	}
	return victims, nil
}

// RegisterChunkMetrics installs pull collectors for the chunk index.
func (c *Catalog) RegisterChunkMetrics(r *obs.Registry) {
	r.RegisterFunc("chunk_index_entries", obs.KindGauge, nil, func() float64 {
		return float64(len(c.chunks))
	})
	r.RegisterFunc("chunk_index_stored_bytes", obs.KindGauge, nil, func() float64 {
		return float64(c.chunkStored)
	})
	r.RegisterFunc("chunk_index_dead_bytes", obs.KindGauge, nil, func() float64 {
		return float64(c.chunkDead)
	})
}

// --- encoding -----------------------------------------------------------

func encodeChunkIndex(r *chunkIndexRecord) []byte {
	e := &codec.Enc{}
	e.U8(kindChunkIndex)
	e.U8(chunkIndexPacked)
	e.U32(uint32(len(r.Entries)))
	for _, ce := range r.Entries {
		e.Raw(ce.Hash[:])
		e.U32(ce.RawLen)
		e.U32(ce.StoredLen)
		e.Bool(ce.Compressed)
		e.Str(ce.Loc.Volume)
		e.I64(ce.Loc.Index)
		e.U32(ce.Loc.Off)
	}
	return e.B
}

func encodeChunkManifest(r *chunkManifestRecord) []byte {
	e := &codec.Enc{}
	e.U8(kindManifest)
	e.U8(1)
	e.U64(r.SetID)
	e.I64(r.M.RawBytes)
	e.I64(r.M.StoredBytes)
	e.U32(uint32(len(r.M.Refs)))
	for _, ref := range r.M.Refs {
		e.Raw(ref.Hash[:])
		e.U32(ref.RawLen)
	}
	return e.B
}

func encodeChunkErase(r *chunkEraseRecord) []byte {
	e := &codec.Enc{}
	e.U8(kindChunkErase)
	e.U8(1)
	e.U32(uint32(len(r.Hashes)))
	for _, h := range r.Hashes {
		e.Raw(h[:])
	}
	return e.B
}

// decodeChunkRecord parses kinds 7-9 (called from DecodeRecord with
// the kind/version prefix already consumed).
func decodeChunkRecord(kind, ver uint8, d *codec.Dec) (Record, error) {
	switch kind {
	case kindChunkIndex:
		n := d.Count()
		var r chunkIndexRecord
		for i := 0; i < n; i++ {
			var ce chunk.Entry
			d.Raw(ce.Hash[:])
			ce.RawLen = d.U32()
			ce.StoredLen = d.U32()
			ce.Compressed = d.Bool()
			ce.Loc.Volume = d.Str()
			ce.Loc.Index = d.I64()
			if ver == chunkIndexPacked {
				ce.Loc.Off = d.U32()
			}
			if d.Err() != nil {
				return nil, d.Err()
			}
			if ce.RawLen == 0 || ce.StoredLen == 0 {
				return nil, fmt.Errorf("catalog: chunk entry with zero length")
			}
			r.Entries = append(r.Entries, ce)
		}
		if err := d.Done(); err != nil {
			return nil, err
		}
		return r, nil
	case kindManifest:
		var r chunkManifestRecord
		r.SetID = d.U64()
		r.M.RawBytes = d.I64()
		r.M.StoredBytes = d.I64()
		n := d.Count()
		for i := 0; i < n; i++ {
			var ref chunk.Ref
			d.Raw(ref.Hash[:])
			ref.RawLen = d.U32()
			if d.Err() != nil {
				return nil, d.Err()
			}
			r.M.Refs = append(r.M.Refs, ref)
		}
		if err := d.Done(); err != nil {
			return nil, err
		}
		if r.SetID == 0 {
			return nil, fmt.Errorf("catalog: manifest for set id 0")
		}
		return r, nil
	case kindChunkErase:
		n := d.Count()
		var r chunkEraseRecord
		for i := 0; i < n; i++ {
			var h chunk.Hash
			d.Raw(h[:])
			if d.Err() != nil {
				return nil, d.Err()
			}
			r.Hashes = append(r.Hashes, h)
		}
		if err := d.Done(); err != nil {
			return nil, err
		}
		return r, nil
	}
	return nil, fmt.Errorf("catalog: unknown record kind %d", kind)
}
