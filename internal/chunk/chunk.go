// Package chunk is the content-defined dedup + compression layer that
// sits between the dump engines and their media sinks (ROADMAP item 1).
//
// A dump stream — either engine's, unchanged — is fed through a
// rolling-hash splitter (Gear/FastCDC-style; see splitter.go) that
// cuts it into content-defined chunks, so an insertion early in a file
// shifts boundaries only locally and successive fulls of a
// mostly-unchanged volume resolve to mostly-identical chunks. Each
// chunk is addressed by its SHA-256; a chunk already in the index is a
// dedup hit and is NOT written to media again — the stream's manifest
// just references it. Misses are compressed (deflate, skipped when the
// bytes don't compress) and appended to chunk media, and their index
// entries are journaled in the backup catalog with the same CRC
// framing and torn-tail recovery the rest of the catalog enjoys.
//
// Restore is the inverse: a manifest's refs resolve through the index
// to stored locations, chunks are read, decompressed, verified against
// their hash, and re-blocked into tape-sized records, so either
// engine's restore consumes the stream without knowing dedup happened.
//
// Two dedup directions are supported (see Writer):
//
//   - Forward (default): a hit against an older set references the old
//     copy. New fulls write almost nothing — but the newest stream is
//     scattered across the media of every set it dedups against.
//   - Reverse (RevDedup): a hit against an older set is rewritten to
//     the current media region and the index entry is superseded, so
//     the NEWEST stream stays contiguous on media and restores at
//     streaming rate; the older sets' manifests transparently redirect
//     to the new copy (manifests hold hashes, the index maps hash →
//     current location, latest wins), and the old copies become dead
//     bytes reclaimed with their volumes.
package chunk

import (
	"crypto/sha256"
	"encoding/hex"
)

// Hash is a chunk's content address (SHA-256).
type Hash [32]byte

// Sum returns the content address of p.
func Sum(p []byte) Hash { return sha256.Sum256(p) }

// String renders the short (8-byte) form used in logs and listings.
func (h Hash) String() string { return hex.EncodeToString(h[:8]) }

// Params configures the splitter's chunk-size distribution. Cuts are
// content-defined between Min and Max with mean near Avg.
type Params struct {
	Min, Avg, Max int
}

// DefaultParams is the standard backup-stream tuning: 2 KB / 8 KB /
// 32 KB, small enough that day-to-day churn stays localized, large
// enough that per-chunk overheads (hash, index entry) stay under 1%.
func DefaultParams() Params { return Params{Min: 2 << 10, Avg: 8 << 10, Max: 32 << 10} }

// norm applies defaults and clamps degenerate configurations.
func (p Params) norm() Params {
	d := DefaultParams()
	if p.Min <= 0 {
		p.Min = d.Min
	}
	if p.Avg <= 0 {
		p.Avg = d.Avg
	}
	if p.Max <= 0 {
		p.Max = d.Max
	}
	if p.Avg < p.Min {
		p.Avg = p.Min
	}
	if p.Max < p.Avg {
		p.Max = p.Avg
	}
	return p
}

// Loc addresses one stored chunk on chunk media: a volume label plus a
// position whose meaning belongs to the media implementation (raw
// record index on tape, byte offset in a chunk-store file).
type Loc struct {
	Volume string
	Index  int64
}

// Entry is the chunk index's record for one stored chunk: where the
// current copy lives and how to undo its encoding. Entries are
// journaled in the catalog (kind chunk-index); for one hash the
// latest journaled entry wins, which is what lets reverse dedup
// redirect every older manifest by appending a superseding entry.
type Entry struct {
	Hash       Hash
	RawLen     uint32 // chunk length before compression
	StoredLen  uint32 // bytes on media
	Compressed bool   // deflate applied (false = stored raw)
	Loc        Loc
}

// Ref is one manifest entry: the i-th chunk of a dedup-encoded stream,
// by content address. RawLen is carried so restore can size buffers
// and accounting can total a stream without index lookups.
type Ref struct {
	Hash   Hash
	RawLen uint32
}

// Manifest describes one complete dedup-encoded stream: the ordered
// chunk refs that reconstitute it, plus the accounting the catalog
// listing shows (logical stream bytes vs. unique bytes this set
// actually added to media).
type Manifest struct {
	Refs []Ref
	// RawBytes is the logical stream length (sum of ref RawLens).
	RawBytes int64
	// StoredBytes is what this stream wrote to media: unique new
	// chunks after compression (plus reverse-mode rewrites). Dedup hits
	// contribute zero.
	StoredBytes int64
}

// Lookup is the read side of the chunk index.
type Lookup interface {
	// LookupChunk returns the current stored location of a chunk.
	LookupChunk(h Hash) (Entry, bool)
}

// Index is the chunk writer's view of the backup catalog: lookups plus
// durable journaling of newly stored chunks. *catalog.Catalog
// implements it.
type Index interface {
	Lookup
	// CommitChunks durably records newly stored chunks (latest entry
	// wins per hash). Called from Writer.Sync, i.e. at engine
	// checkpoints, and at Close.
	CommitChunks(entries []Entry) error
}

// Media is append-only chunk storage. Append must consume data before
// returning (the caller reuses the buffer); ReadAt returns the exact
// bytes appended at loc, lent like a stream.Source's record: read-only
// and valid until the media's next ReadAt (DriveMedia hands out the
// drive's one read buffer). Media with write-behind buffering also
// implement stream.Syncer: the Writer syncs them before journaling
// index entries, so the journal never references bytes that aren't on
// media.
type Media interface {
	Append(data []byte) (Loc, error)
	ReadAt(loc Loc) ([]byte, error)
}

// Eraser is optionally implemented by media that can erase individual
// chunks in place (the catalog sweep calls it for zero-ref chunks).
// Media without it reclaim dead bytes at volume granularity instead.
type Eraser interface {
	Erase(loc Loc) error
}
