// Package media manages the backup media pool: the labelled tape
// volumes the dump streams land on, their scratch → active → expired
// lifecycle, retention policies deciding which dump sets (and hence
// which media) must be kept, and the reclamation pass that erases
// volumes once nothing live references them. Every transition is
// recorded in the backup catalog's journal, so the pool's state
// survives restarts the same way the dump history does.
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

// State is a volume's lifecycle position.
type State int

const (
	// Scratch volumes are empty and writable.
	Scratch State = iota
	// Active volumes hold data of at least one unexpired dump set and
	// are protected against erasure.
	Active
	// Expired volumes hold only expired dump sets; they are awaiting
	// reclamation and still readable (last-resort restores).
	Expired
	// Quarantined volumes carry media damage a read-back found. They
	// are excluded from Reclaim and refused by Erase — frozen as
	// evidence and for salvage reads — and a set committed to one
	// later leaves it quarantined.
	Quarantined
)

func (s State) String() string {
	switch s {
	case Scratch:
		return "scratch"
	case Active:
		return "active"
	case Expired:
		return "expired"
	case Quarantined:
		return "quarantined"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Volume is one labelled media volume and its pool bookkeeping.
type Volume struct {
	Label string
	State State
	// Sets are the dump-set IDs whose streams touch this volume.
	Sets []uint64
	// Cart binds the volume to simulated tape media; nil for volumes
	// that are host files (backupctl stream files).
	Cart *tape.Cartridge
}

// Pool tracks a set of volumes against a catalog.
type Pool struct {
	Name string
	cat  *catalog.Catalog
	vols map[string]*Volume
	// order preserves registration order for deterministic iteration.
	order []string
}

// NewPool creates a pool named name, recording against cat. Lifecycle
// history already in the catalog (a reopened journal) is replayed so
// the pool resumes where it left off.
func NewPool(name string, cat *catalog.Catalog) *Pool {
	p := &Pool{Name: name, cat: cat, vols: make(map[string]*Volume)}
	for _, ev := range cat.MediaEvents() {
		if ev.Pool != name {
			continue
		}
		switch ev.Kind {
		case catalog.MediaRegister:
			p.ensure(ev.Volume)
		case catalog.MediaActivate:
			p.ensure(ev.Volume).State = Active
		case catalog.MediaReclaim:
			v := p.ensure(ev.Volume)
			v.State = Scratch
			v.Sets = nil
		case catalog.MediaQuarantine:
			p.ensure(ev.Volume).State = Quarantined
		}
	}
	// Rebuild set references and expired states from the dump history.
	for _, ds := range cat.Sets() {
		for _, m := range ds.Media {
			if v, ok := p.vols[m.Volume]; ok && v.State != Scratch {
				v.Sets = append(v.Sets, ds.ID)
			}
		}
	}
	for _, v := range p.vols {
		p.refreshState(v)
	}
	return p
}

func (p *Pool) ensure(label string) *Volume {
	if v, ok := p.vols[label]; ok {
		return v
	}
	v := &Volume{Label: label}
	p.vols[label] = v
	p.order = append(p.order, label)
	return v
}

// refreshState demotes an Active volume to Expired when every
// referencing set has expired (it never resurrects a volume).
func (p *Pool) refreshState(v *Volume) {
	if v.State != Active {
		return
	}
	for _, id := range v.Sets {
		if _, dead := p.cat.Expired(id); !dead {
			return
		}
	}
	if len(v.Sets) > 0 {
		v.State = Expired
	}
}

// Register introduces a volume (optionally bound to a cartridge) as
// scratch, journaling the event. Registering a known label rebinds
// its cartridge without a new event.
func (p *Pool) Register(label string, cart *tape.Cartridge, now int64) error {
	if v, ok := p.vols[label]; ok {
		v.Cart = cart
		return nil
	}
	v := p.ensure(label)
	v.Cart = cart
	return p.cat.AppendMediaEvent(catalog.MediaEvent{
		Kind: catalog.MediaRegister, Volume: label, Pool: p.Name, Time: now,
	})
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
func (p *Pool) Volume(label string) (*Volume, bool) {
	v, ok := p.vols[label]
	return v, ok
}

// Volumes lists the pool in registration order.
func (p *Pool) Volumes() []*Volume {
	out := make([]*Volume, 0, len(p.order))
	for _, l := range p.order {
		out = append(out, p.vols[l])
	}
	return out
}

// CommitSet records that a dump set's stream landed on the given
// volumes: each gains the set reference and becomes Active (journaled
// on the first transition) — except a Quarantined volume, which stays
// quarantined: a new set on damaged media lifts nothing. Unknown labels
// are auto-registered — a dump may have spanned onto media the pool
// had not seen.
func (p *Pool) CommitSet(setID uint64, labels []string, now int64) error {
	for _, l := range labels {
		if _, ok := p.vols[l]; !ok {
			if err := p.Register(l, nil, now); err != nil {
				return err
			}
		}
		v := p.vols[l]
		if v.State != Active && v.State != Quarantined {
			if err := p.cat.AppendMediaEvent(catalog.MediaEvent{
				Kind: catalog.MediaActivate, Volume: l, Pool: p.Name, Time: now,
			}); err != nil {
				return err
			}
			v.State = Active
		}
		v.Sets = append(v.Sets, setID)
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
	for _, v := range p.vols {
		p.refreshState(v)
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

// Reclaim erases and returns to scratch every volume whose referencing
// dump sets have all expired. Volumes with any live reference are left
// untouched — the pool's overwrite protection. It returns the labels
// reclaimed.
func (p *Pool) Reclaim(now int64) ([]string, error) {
	var out []string
	chunkVols := p.cat.ChunkVolumes()
	for _, l := range p.order {
		v := p.vols[l]
		p.refreshState(v)
		if v.State != Expired {
			continue
		}
		// A volume holding live indexed chunks is pinned even when every
		// dump set directly on it has expired: reverse dedup can leave it
		// hosting the only copy of chunks newer sets reference. Sweep the
		// chunk index first (catalog.SweepChunks), then reclaim.
		if chunkVols[l] {
			continue
		}
		if v.Cart != nil {
			v.Cart.Erase()
		}
		if err := p.cat.AppendMediaEvent(catalog.MediaEvent{
			Kind: catalog.MediaReclaim, Volume: l, Pool: p.Name, Time: now,
		}); err != nil {
			return out, err
		}
		v.State = Scratch
		v.Sets = nil
		out = append(out, l)
	}
	return out, nil
}

// Quarantine freezes a volume after damage is found on it: journaled,
// excluded from Reclaim, refused by Erase. Idempotent while the volume
// stays quarantined. Unknown labels are auto-registered first — damage
// may be found on media the pool had not seen.
func (p *Pool) Quarantine(label string, now int64) error {
	if _, ok := p.vols[label]; !ok {
		if err := p.Register(label, nil, now); err != nil {
			return err
		}
	}
	v := p.vols[label]
	if v.State == Quarantined {
		return nil
	}
	if err := p.cat.AppendMediaEvent(catalog.MediaEvent{
		Kind: catalog.MediaQuarantine, Volume: label, Pool: p.Name, Time: now,
	}); err != nil {
		return err
	}
	v.State = Quarantined
	return nil
}

// Erase force-erases one volume, refusing while any unexpired dump
// set references it.
func (p *Pool) Erase(label string, now int64) error {
	v, ok := p.vols[label]
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
	if v.Cart != nil {
		v.Cart.Erase()
	}
	if err := p.cat.AppendMediaEvent(catalog.MediaEvent{
		Kind: catalog.MediaReclaim, Volume: label, Pool: p.Name, Time: now,
	}); err != nil {
		return err
	}
	v.State = Scratch
	v.Sets = nil
	return nil
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
