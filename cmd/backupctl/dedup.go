// Dedup-encoded dumps for backupctl: with -dedup a dump stream is cut
// into content-defined chunks, deduplicated against the volume's chunk
// index (which lives in <vol>.catalog), compressed, and appended to
// the shared <vol>.chunkstore file instead of a per-dump stream file.
// The set's manifest is journaled beside it, and whatever reads the set
// back — recover, scrub, `restore -set N` / `imagerestore -set N` —
// gets the stream rebuilt by resolving the manifest through the index
// (setOpener). `catalog -sweep` erases zero-reference chunks.
package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/catalog"
	"repro/internal/chunk"
	"repro/internal/media"
	"repro/internal/stream"
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
	ratio := 1.0
	if m.StoredBytes > 0 {
		ratio = float64(m.RawBytes) / float64(m.StoredBytes)
	}
	fmt.Printf("dedup: %d chunks (%d hits, %d misses, %d rewrites), %d bytes saved, %.2fx vs store\n",
		ws.Chunks, ws.Hits, ws.Misses, ws.Rewrites, ws.HitBytes, ratio)
}

// setOpener is backupctl's engine.Opener, the one answer to "given a
// set in cat, where are its bytes": a set with a manifest is rebuilt
// through the catalog's chunk index from the store beside vol (opened on
// first use, closed by Close), any other is one stream file per media
// ref, each closed by whoever reads it. recover, restore -set,
// imagerestore -set, scrub and every landing read through it; host
// files have no damage to ride over, so that callback is unused.
type setOpener struct {
	cat   *catalog.Catalog
	vol   string
	store *chunk.FileMedia
}

func (o *setOpener) open(_ context.Context, ds catalog.DumpSet, _ func(string, int)) ([]stream.Source, error) {
	if m, ok := o.cat.Manifest(ds.ID); ok {
		if o.store == nil {
			if _, err := os.Stat(chunkStorePath(o.vol)); err != nil {
				return nil, media.Unmountable{chunkStorePath(o.vol)} // opening would create it
			}
			var err error
			if o.store, err = openChunkStore(o.vol); err != nil {
				return nil, err
			}
		}
		return []stream.Source{chunk.NewReader(o.cat, o.store, m)}, nil
	}
	var srcs []stream.Source
	for _, ref := range ds.Media {
		src, err := openStream(ref.Volume)
		if err != nil {
			stream.Close(srcs...)
			return nil, media.Unmountable{ref.Volume}
		}
		srcs = append(srcs, src)
	}
	return srcs, nil
}

func (o *setOpener) Close() {
	if o.store != nil {
		o.store.Close()
	}
}

// openInput is the streams `restore` and `imagerestore` apply, in
// order: the file -i names, or with -set the streams of the set of that
// id in the catalog beside from (beside vol when -from is not given),
// which must be an eng dump — several streams for a resumed set. The
// caller runs done when the restore is over.
func openInput(ctx context.Context, in, from, vol string, id uint64, eng catalog.Engine) (catalog.DumpSet, []stream.Source, func(), error) {
	if id == 0 {
		file, err := openStream(in)
		if err != nil {
			return catalog.DumpSet{}, nil, nil, err
		}
		return catalog.DumpSet{}, []stream.Source{file}, func() { file.Close() }, nil
	}
	if from == "" {
		from = vol
	}
	cat, closeCat, err := openCatalog(from)
	if err != nil {
		return catalog.DumpSet{}, nil, nil, err
	}
	sets := &setOpener{cat: cat, vol: from}
	ds, ok := cat.Set(id)
	if !ok || ds.Engine != eng {
		err = fmt.Errorf("%s catalog has no %s set %d", from, eng, id)
	}
	var streams []stream.Source
	if err == nil {
		streams, err = sets.open(ctx, ds, nil)
	}
	if err != nil {
		closeCat()
		return ds, nil, nil, err
	}
	return ds, streams, func() { stream.Close(streams...); sets.Close(); closeCat() }, nil
}

// sweepChunks erases zero-reference chunks from the store beside vol.
// The erase record is journaled before the bytes are zeroed, so a
// crash between the two only leaves dead (unreferenced) bytes behind.
func sweepChunks(cat *catalog.Catalog, vol string) error {
	var erase func(chunk.Entry) error
	if _, err := os.Stat(chunkStorePath(vol)); err == nil {
		store, err := openChunkStore(vol)
		if err != nil {
			return err
		}
		defer store.Close()
		erase = store.Erase
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
