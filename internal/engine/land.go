package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/chunk"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/stream"
	"repro/internal/wafl"
)

// Land is the one way a finished dump enters a catalog: a set counts at
// one commit point, and only once read back. It journals ds, then m (a
// dedup'd set's chunk manifest, or nil) so open can find the set; opens
// the landed streams through open, the way recover and scrub read them;
// checks them with CheckSet; and journals the file index that read
// derived, for a logical set not resumed. A finding journals no index
// but marks the set damaged ("ingest: …"), and detail says what it was;
// media open cannot produce marks it damaged too and is the error. id is
// 0 only when ds itself could not be journaled.
func Land(ctx context.Context, cat *catalog.Catalog, ds catalog.DumpSet, m *chunk.Manifest, open Opener) (id uint64, detail string, err error) {
	if ds.ID, err = cat.AppendDumpSet(ds); err != nil {
		return 0, "", err
	}
	if m != nil {
		if err := cat.AppendManifest(ds.ID, *m); err != nil {
			return ds.ID, "", err
		}
	}
	streams, err := open(ctx, ds, nil)
	if err != nil {
		err = fmt.Errorf("engine: reading set %d back: %w", ds.ID, err)
		return ds.ID, "", errors.Join(err, cat.MarkDamaged(ds.ID, ds.Date, "ingest: "+err.Error()))
	}
	defer stream.Close(streams...)
	findings, _, index := CheckSet(ctx, ds, streams)
	switch {
	case len(findings) > 0:
		return ds.ID, findings[0].Detail, cat.MarkDamaged(ds.ID, ds.Date, "ingest: "+findings[0].Detail)
	case ds.Engine == catalog.Logical && !ds.Resumed:
		return ds.ID, "", cat.AppendFileIndex(ds.ID, index)
	}
	return ds.ID, "", nil
}

// Finding is one thing a read-back of a set found wrong: a stream that
// failed its engine's format checks or could not be read, corrupt units
// a logical reader resynced over, or (Short) streams that ended cleanly
// but carried fewer bytes than the catalog records for the set.
type Finding struct {
	Short  bool
	Detail string
}

// CheckSet reads a set's opened streams end to end through Verify and
// returns what it found, the stream bytes read and the file index a
// logical set's streams yield. Of a resumed set only the last stream is
// read (the others are torn by design), and it is not held to ds.Bytes,
// which sums every stream. The caller closes the streams.
func CheckSet(ctx context.Context, ds catalog.DumpSet, streams []stream.Source) (findings []Finding, n int64, index []catalog.FileIndexEntry) {
	if ds.Resumed && len(streams) > 1 {
		streams = streams[len(streams)-1:]
	}
	file := func(path string, ino wafl.Inum, unit int64) {
		index = append(index, catalog.FileIndexEntry{Path: path, Ino: uint32(ino), Unit: unit})
	}
	for _, src := range streams {
		counted := &countingSource{src: src}
		resynced, err := Verify(ctx, ds.Engine, counted, file)
		n += counted.n
		if err != nil {
			findings = append(findings, Finding{Detail: err.Error()})
		}
		if resynced > 0 {
			findings = append(findings, Finding{Detail: fmt.Sprintf("%d corrupt unit(s) resynced over", resynced)})
		}
	}
	// Part of the set is gone: only meaningful when nothing louder fired.
	if len(findings) == 0 && !ds.Resumed && n < ds.Bytes {
		findings = append(findings, Finding{Short: true,
			Detail: fmt.Sprintf("catalog says %d bytes, media yields %d", ds.Bytes, n)})
	}
	return findings, n, index
}

// Verify reads one stream end to end through its engine's format checks
// (header checksums, CRC framing, trailer) without applying it, and
// hands file, when not nil, each file a logical stream names
// (logical.Index). resynced counts corrupt units a logical reader
// skipped over.
func Verify(ctx context.Context, eng catalog.Engine, src stream.Source, file func(path string, ino wafl.Inum, unit int64)) (resynced int, err error) {
	if eng == catalog.Image {
		_, err := physical.VerifyStream(ctx, src)
		return 0, err
	}
	return logical.Index(src, file)
}

// countingSource counts the bytes read through it.
type countingSource struct {
	src stream.Source
	n   int64
}

func (c *countingSource) ReadRecord() ([]byte, error) {
	rec, err := c.src.ReadRecord()
	c.n += int64(len(rec))
	return rec, err
}
