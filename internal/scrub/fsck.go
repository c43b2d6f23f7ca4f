package scrub

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/dumpfmt"
	"repro/internal/media"
)

// FsckOptions selects what the catalog is cross-checked against.
type FsckOptions struct {
	// Pool is the media pool holding the catalog's volumes (simulated
	// cartridges). Nil when volumes are host files.
	Pool *media.Pool
	// HaveVolume resolves file-backed volumes: it returns the volume's
	// recorded extent in bytes and whether it exists at all (backupctl
	// plugs os.Stat in here).
	HaveVolume func(label string) (extent int64, ok bool)
}

// Fsck cross-checks the catalog against the media pool without reading
// any stream data — the cheap structural half of an integrity pass.
// It reports, as typed findings: live sets whose media is gone
// (orphans), incrementals whose base was erased, seek-index entries
// pointing past the recorded media extent, and pool labels whose
// lifecycle state disagrees with what the media actually holds.
func Fsck(cat *catalog.Catalog, opts FsckOptions) []Finding {
	var out []Finding
	live := cat.Live()

	for _, ds := range live {
		out = append(out, fsckMedia(ds, opts)...)
		out = append(out, fsckIndex(cat, ds, opts)...)
		if f, bad := fsckBase(cat, ds); bad {
			out = append(out, f)
		}
	}
	if opts.Pool != nil {
		out = append(out, fsckPool(opts.Pool)...)
	}
	return dedupe(out)
}

// fsckMedia verifies a live set's volumes are producible.
func fsckMedia(ds catalog.DumpSet, opts FsckOptions) []Finding {
	var out []Finding
	for _, ref := range ds.Media {
		if opts.HaveVolume != nil {
			if _, ok := opts.HaveVolume(ref.Volume); !ok {
				out = append(out, Finding{Kind: OrphanSet, SetID: ds.ID,
					Volume: ref.Volume, Record: -1, Detail: "volume is missing"})
			}
			continue
		}
		if opts.Pool == nil {
			continue
		}
		v, ok := opts.Pool.Volume(ref.Volume)
		switch {
		case !ok || v.Cart == nil:
			out = append(out, Finding{Kind: OrphanSet, SetID: ds.ID,
				Volume: ref.Volume, Record: -1, Detail: "pool cannot mount volume"})
		case v.State == media.Scratch:
			out = append(out, Finding{Kind: OrphanSet, SetID: ds.ID,
				Volume: ref.Volume, Record: -1, Detail: "volume was reclaimed to scratch"})
		case int(ref.Start) >= v.Cart.Index():
			out = append(out, Finding{Kind: IndexPastExtent, SetID: ds.ID,
				Volume: ref.Volume, Record: int(ref.Start),
				Detail: fmt.Sprintf("start %d past media extent %d", ref.Start, v.Cart.Index())})
		}
	}
	return out
}

// fsckIndex verifies the set's seek index: file-index units must land
// inside the stream's recorded byte extent, and a file-backed volume
// must be at least as large as the stream it claims to hold — unless
// the set has a manifest: its volume is the shared, compressed chunk
// store (one cut short is caught by the read: every chunk is hashed).
func fsckIndex(cat *catalog.Catalog, ds catalog.DumpSet, opts FsckOptions) []Finding {
	var out []Finding
	for _, e := range cat.FileIndex(ds.ID) {
		if e.Unit*dumpfmt.TPBSize >= ds.Bytes && ds.Bytes > 0 {
			out = append(out, Finding{Kind: IndexPastExtent, SetID: ds.ID, Record: -1,
				Detail: fmt.Sprintf("index entry %q at unit %d past stream extent %d bytes",
					e.Path, e.Unit, ds.Bytes)})
		}
	}
	if _, chunked := cat.Manifest(ds.ID); opts.HaveVolume != nil && len(ds.Media) == 1 && !chunked {
		if ext, ok := opts.HaveVolume(ds.Media[0].Volume); ok && ext < ds.Bytes {
			out = append(out, Finding{Kind: IndexPastExtent, SetID: ds.ID,
				Volume: ds.Media[0].Volume, Record: -1,
				Detail: fmt.Sprintf("volume holds %d bytes, catalog says %d", ext, ds.Bytes)})
		}
	}
	return out
}

// fsckBase verifies a live incremental's base link still resolves to
// an unexpired set.
func fsckBase(cat *catalog.Catalog, ds catalog.DumpSet) (Finding, bool) {
	if ds.Full() {
		return Finding{}, false
	}
	base, ok := cat.Base(ds)
	if !ok {
		return Finding{Kind: MissingBase, SetID: ds.ID, Record: -1,
			Detail: "base set is not in the catalog"}, true
	}
	if _, dead := cat.Expired(base.ID); dead {
		return Finding{Kind: MissingBase, SetID: ds.ID, Record: -1,
			Detail: fmt.Sprintf("base set %d is expired", base.ID)}, true
	}
	return Finding{}, false
}

// fsckPool verifies each pool label's lifecycle state against the
// media it is bound to: an active (or quarantined) volume holding live
// sets must carry recorded data, and a scratch volume must be blank.
func fsckPool(pool *media.Pool) []Finding {
	var out []Finding
	for _, v := range pool.Volumes() {
		if v.Cart == nil {
			continue
		}
		switch {
		case (v.State == media.Active || v.State == media.Quarantined) &&
			len(v.Sets) > 0 && v.Cart.Bytes() == 0:
			out = append(out, Finding{Kind: PoolStateMismatch, Volume: v.Label, Record: -1,
				Detail: fmt.Sprintf("pool says %s with %d set(s) but media is blank", v.State, len(v.Sets))})
		case v.State == media.Scratch && v.Cart.Bytes() > 0:
			out = append(out, Finding{Kind: PoolStateMismatch, Volume: v.Label, Record: -1,
				Detail: "pool says scratch but media holds data"})
		}
	}
	return out
}
