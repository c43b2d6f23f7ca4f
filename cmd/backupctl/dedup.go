// Dedup-encoded dumps for backupctl: with -dedup a dump stream is cut
// into content-defined chunks, deduplicated against the volume's chunk
// index (which lives in <vol>.catalog), compressed, and appended to
// the shared <vol>.chunkstore file instead of a per-dump stream file.
// The set's manifest is journaled beside it, and `restore -set N` /
// `imagerestore -set N` rebuild the stream by resolving the manifest
// through the index. `catalog -sweep` erases zero-reference chunks.
package main

import (
	"fmt"
	"os"

	"repro/internal/catalog"
	"repro/internal/chunk"
)

// chunkStorePath names the shared chunk store beside a volume image.
func chunkStorePath(vol string) string { return vol + ".chunkstore" }

// openChunkStore opens (creating if absent) the chunk store beside
// vol. The store path doubles as the media volume label, matching the
// MediaRef convention for stream files.
func openChunkStore(vol string) (*chunk.FileMedia, error) {
	p := chunkStorePath(vol)
	return chunk.OpenFileMedia(p, p)
}

// printDedupStats reports one dedup-encoded dump's outcome.
func printDedupStats(ws chunk.WriterStats, m chunk.Manifest) {
	saved := ws.HitBytes
	ratio := 1.0
	if m.StoredBytes > 0 {
		ratio = float64(m.RawBytes) / float64(m.StoredBytes)
	}
	fmt.Printf("dedup: %d chunks (%d hits, %d misses, %d rewrites), %d bytes saved, %.2fx vs store\n",
		ws.Chunks, ws.Hits, ws.Misses, ws.Rewrites, saved, ratio)
}

// setSource opens what `restore -set` and `imagerestore -set` replay:
// the catalog beside from (beside vol when -from is not given) and a
// record source that rebuilds set id's stream through that volume's
// chunk index and store. vet, when non-nil, sees the catalog first and
// can refuse the set. The caller runs done when the restore is over.
func setSource(from, vol string, id uint64, vet func(cat *catalog.Catalog, catVol string) error) (*chunk.Reader, func(), error) {
	if from == "" {
		from = vol
	}
	cat, closeCat, err := openCatalog(from, "")
	if err != nil {
		return nil, nil, err
	}
	if vet != nil {
		err = vet(cat, from)
	}
	m, ok := cat.Manifest(id)
	if err == nil && !ok {
		err = fmt.Errorf("set %d has no chunk manifest (not a dedup-encoded dump)", id)
	}
	var media *chunk.FileMedia
	if err == nil {
		media, err = openChunkStore(from)
	}
	if err != nil {
		closeCat()
		return nil, nil, err
	}
	return chunk.NewReader(cat, media, m), func() { media.Close(); closeCat() }, nil
}

// sweepChunks erases zero-reference chunks from the store beside vol.
// The erase record is journaled before the bytes are zeroed, so a
// crash between the two only leaves dead (unreferenced) bytes behind.
func sweepChunks(cat *catalog.Catalog, vol string) error {
	var erase func(chunk.Entry) error
	var media *chunk.FileMedia
	if _, err := os.Stat(chunkStorePath(vol)); err == nil {
		m, err := openChunkStore(vol)
		if err != nil {
			return err
		}
		media = m
		defer media.Close()
		erase = func(e chunk.Entry) error { return media.Erase(e.Loc) }
	}
	swept, err := cat.SweepChunks(erase)
	if err != nil {
		return err
	}
	var bytes int64
	for _, e := range swept {
		bytes += int64(e.StoredLen)
	}
	fmt.Printf("swept %d zero-ref chunks (%d stored bytes erased)\n", len(swept), bytes)
	return nil
}
