// Package media manages the backup media pool: the labelled tape
// volumes the dump streams land on, retention policies deciding which
// dump sets (and hence which media) must be kept, and the reclamation
// pass that erases volumes once nothing live references them. Every
// transition is an event in the backup catalog's journal, and a
// volume's scratch → active → expired lifecycle is the catalog's fold
// of them (catalog.Catalog.Volume), the same at open and live.
//
// The safety property the pool enforces is the one tape libraries are
// built around: a volume is never erased or overwritten while any
// unexpired dump set references it — retention expires sets, and only
// a volume whose referencing sets have all expired is reclaimed back
// to scratch.
package media

import (
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/tape"
)

// State is a volume's lifecycle position: the catalog's, under the
// names callers of the pool know it by.
type State = catalog.VolumeState

// The lifecycle states (see catalog.VolumeState).
const (
	Scratch     = catalog.Scratch
	Active      = catalog.Active
	Expired     = catalog.Expired
	Quarantined = catalog.Quarantined
)

// Volume is the catalog's view of one pool volume plus the cartridge
// it is bound to.
type Volume struct {
	catalog.MediaVolume
	// Cart binds the volume to simulated tape media; nil for volumes
	// that are host files (backupctl stream files).
	Cart *tape.Cartridge
}

// Pool tracks a set of volumes against a catalog. Their lifecycle is
// the catalog's fold of the journal's media events; the pool writes
// those events and keeps only what is never journaled, the cartridge
// each label is bound to.
type Pool struct {
	Name  string
	cat   *catalog.Catalog
	carts map[string]*tape.Cartridge
}

// NewPool creates a pool named name, recording against cat. Volumes
// the catalog already holds for the pool (a reopened journal) are the
// pool's from the start; their cartridges are bound again by Register.
func NewPool(name string, cat *catalog.Catalog) *Pool {
	return &Pool{Name: name, cat: cat, carts: make(map[string]*tape.Cartridge)}
}

// Register introduces a volume (optionally bound to a cartridge) as
// scratch, journaling the event. Registering a known label rebinds
// its cartridge without a new event; a label another pool holds is
// refused.
func (p *Pool) Register(label string, cart *tape.Cartridge, now int64) error {
	if v, ok := p.cat.Volume(label); !ok {
		if err := p.journal(catalog.MediaRegister, label, now); err != nil {
			return err
		}
	} else if v.Pool != p.Name {
		return fmt.Errorf("media: volume %q belongs to pool %q", label, v.Pool)
	}
	p.carts[label] = cart
	return nil
}

func (p *Pool) journal(kind catalog.MediaEventKind, label string, now int64) error {
	return p.cat.AppendMediaEvent(catalog.MediaEvent{Kind: kind, Volume: label, Pool: p.Name, Time: now})
}

// Adopt registers every cartridge in a drive's stacker (and the
// mounted one) as pool volumes — how a filer's preloaded tape bank
// joins the pool.
func (p *Pool) Adopt(d *tape.Drive, now int64) error {
	if c := d.Loaded(); c != nil {
		if err := p.Register(c.Label, c, now); err != nil {
			return err
		}
	}
	for _, c := range d.Stacker() {
		if err := p.Register(c.Label, c, now); err != nil {
			return err
		}
	}
	return nil
}

// Volume returns the pool's view of a label.
func (p *Pool) Volume(label string) (Volume, bool) {
	v, ok := p.cat.Volume(label)
	if !ok || v.Pool != p.Name {
		return Volume{}, false
	}
	return Volume{MediaVolume: v, Cart: p.carts[label]}, true
}

// Volumes lists the pool in registration order.
func (p *Pool) Volumes() []Volume {
	var out []Volume
	for _, v := range p.cat.Volumes(p.Name) {
		out = append(out, Volume{MediaVolume: v, Cart: p.carts[v.Label]})
	}
	return out
}

// CommitSet records that a dump set's stream landed on the given
// volumes: a scratch one becomes Active (journaled) — but a
// Quarantined one stays quarantined: a new set on damaged media lifts
// nothing. The set itself is already in the catalog, which is where
// each volume's set list comes from. Unknown labels are
// auto-registered — a dump may have spanned onto media the pool had
// not seen.
func (p *Pool) CommitSet(setID uint64, labels []string, now int64) error {
	for _, l := range labels {
		v, ok := p.Volume(l)
		if !ok {
			if err := p.Register(l, nil, now); err != nil {
				return err
			}
		}
		if !ok || v.State == Scratch {
			if err := p.journal(catalog.MediaActivate, l, now); err != nil {
				return err
			}
		}
	}
	return nil
}

// ApplyRetention expires every dump set of fsid+engine the policy does
// not keep, closing the kept set over base links first so retention
// can never break a restore chain: keeping an incremental keeps its
// whole chain. It returns the IDs newly expired.
func (p *Pool) ApplyRetention(policy RetentionPolicy, fsid string, engine catalog.Engine, now int64) ([]uint64, error) {
	var sets []catalog.DumpSet
	for _, ds := range p.cat.Live() {
		if ds.FSID == fsid && ds.Engine == engine {
			sets = append(sets, ds)
		}
	}
	keep := policy.Keep(sets, now)
	p.chainClose(sets, keep)
	var expired []uint64
	for _, ds := range sets {
		if keep[ds.ID] {
			continue
		}
		if err := p.cat.Expire(ds.ID, now); err != nil {
			return expired, err
		}
		expired = append(expired, ds.ID)
	}
	return expired, nil
}

// chainClose adds the transitive bases of every kept set to keep.
func (p *Pool) chainClose(sets []catalog.DumpSet, keep map[uint64]bool) {
	for changed := true; changed; {
		changed = false
		for _, ds := range sets {
			if !keep[ds.ID] || ds.Full() {
				continue
			}
			if base, ok := p.cat.Base(ds); ok && !keep[base.ID] {
				keep[base.ID] = true
				changed = true
			}
		}
	}
}

// Reclaim erases and returns to scratch every Expired volume: one
// whose referencing dump sets have all expired. Volumes with any live
// reference are left untouched — the pool's overwrite protection. It
// returns the labels reclaimed.
func (p *Pool) Reclaim(now int64) ([]string, error) {
	var out []string
	chunkVols := p.cat.ChunkVolumes()
	for _, v := range p.Volumes() {
		// A volume holding live indexed chunks is pinned even when every
		// dump set directly on it has expired: reverse dedup can leave it
		// hosting the only copy of chunks newer sets reference. Sweep the
		// chunk index first (catalog.SweepChunks), then reclaim.
		if v.State != Expired || chunkVols[v.Label] {
			continue
		}
		if err := p.erase(v.Label, now); err != nil {
			return out, err
		}
		out = append(out, v.Label)
	}
	return out, nil
}

// Quarantine freezes a volume after damage is found on it: journaled,
// excluded from Reclaim, refused by Erase. Idempotent while the volume
// stays quarantined. Unknown labels are auto-registered first — damage
// may be found on media the pool had not seen.
func (p *Pool) Quarantine(label string, now int64) error {
	v, ok := p.Volume(label)
	if !ok {
		if err := p.Register(label, nil, now); err != nil {
			return err
		}
	}
	if v.State == Quarantined {
		return nil
	}
	return p.journal(catalog.MediaQuarantine, label, now)
}

// Erase force-erases one volume, refusing while any unexpired dump
// set references it.
func (p *Pool) Erase(label string, now int64) error {
	v, ok := p.Volume(label)
	if !ok {
		return fmt.Errorf("media: unknown volume %q", label)
	}
	if v.State == Quarantined {
		return fmt.Errorf("media: volume %q is quarantined", label)
	}
	for _, id := range v.Sets {
		if _, dead := p.cat.Expired(id); !dead {
			return fmt.Errorf("media: volume %q holds unexpired dump set %d", label, id)
		}
	}
	if p.cat.ChunkVolumes()[label] {
		return fmt.Errorf("media: volume %q holds live dedup chunks", label)
	}
	return p.erase(label, now)
}

// erase wipes a volume's cartridge and journals it back to scratch.
func (p *Pool) erase(label string, now int64) error {
	if c := p.carts[label]; c != nil {
		c.Erase()
	}
	return p.journal(catalog.MediaReclaim, label, now)
}

// RetentionPolicy decides which dump sets to keep. Keep returns the
// IDs to retain; everything else is expired (after chain closure).
type RetentionPolicy interface {
	Keep(sets []catalog.DumpSet, now int64) map[uint64]bool
}

// KeepLast retains the N most recent dump sets.
type KeepLast struct{ N int }

// Keep implements RetentionPolicy.
func (k KeepLast) Keep(sets []catalog.DumpSet, _ int64) map[uint64]bool {
	keep := map[uint64]bool{}
	ids := make([]uint64, 0, len(sets))
	for _, ds := range sets {
		ids = append(ids, ds.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] > ids[j] })
	for i, id := range ids {
		if i >= k.N {
			break
		}
		keep[id] = true
	}
	return keep
}

// GFS is grandfather-father-son retention: keep the newest set of each
// of the last Daily days, the last Weekly weeks, and the last Monthly
// months. Day is the length of one day in catalog time units (the
// simulated clock runs in nanoseconds; pass 24h). Weeks are 7 days,
// months 30.
type GFS struct {
	Daily, Weekly, Monthly int
	Day                    int64
}

// Keep implements RetentionPolicy.
func (g GFS) Keep(sets []catalog.DumpSet, _ int64) map[uint64]bool {
	keep := map[uint64]bool{}
	if g.Day <= 0 || len(sets) == 0 {
		return keep
	}
	bucketKeep := func(unit int64, n int) {
		if n <= 0 {
			return
		}
		// Newest set per bucket.
		newest := map[int64]catalog.DumpSet{}
		for _, ds := range sets {
			b := ds.Date / unit
			if cur, ok := newest[b]; !ok || ds.Date > cur.Date || (ds.Date == cur.Date && ds.ID > cur.ID) {
				newest[b] = ds
			}
		}
		buckets := make([]int64, 0, len(newest))
		for b := range newest {
			buckets = append(buckets, b)
		}
		sort.Slice(buckets, func(i, j int) bool { return buckets[i] > buckets[j] })
		for i, b := range buckets {
			if i >= n {
				break
			}
			keep[newest[b].ID] = true
		}
	}
	bucketKeep(g.Day, g.Daily)
	bucketKeep(7*g.Day, g.Weekly)
	bucketKeep(30*g.Day, g.Monthly)
	return keep
}
