package catalog

import (
	"errors"
	"fmt"

	"repro/internal/chunk"
	"repro/internal/codec"
	"repro/internal/logical"
	"repro/internal/obs"
)

// Engine identifies which dump engine produced a set.
type Engine uint8

const (
	// Logical is the file-based BSD-style dump (internal/logical).
	Logical Engine = 1
	// Image is the physical block-image dump (internal/physical).
	Image Engine = 2
)

func (e Engine) String() string {
	switch e {
	case Logical:
		return "logical"
	case Image:
		return "image"
	}
	return fmt.Sprintf("engine(%d)", uint8(e))
}

// MediaRef names one media volume a dump set's stream occupies, with
// the raw record index (tape) or byte offset (stream file) where the
// set's data begins on that volume — everything the planner needs to
// mount and position the media without operator input.
type MediaRef struct {
	Volume string
	Start  int64
}

// DumpSet is the catalog's unit of bookkeeping: one completed dump.
type DumpSet struct {
	// ID is the journal-assigned sequence number, 1-based. IDs order
	// sets in completion order, which for one fsid is also date order.
	ID     uint64
	Engine Engine
	// FSID names the filesystem (the dump-date key for logical sets).
	FSID string
	// Snap is the snapshot the dump was taken from.
	Snap string
	// Level is the incremental level for logical sets (0-9); -1 for
	// image sets, whose incrementality is the Gen/BaseGen pair.
	Level int32
	// Date is the dump date (filesystem clock); BaseDate is the base
	// the incremental was taken against (0 = full).
	Date, BaseDate int64
	// Gen/BaseGen are the snapshot generations of an image set
	// (BaseGen 0 = full); NBlocks is the source volume geometry, so a
	// restore can size its target without mounting media.
	Gen, BaseGen, NBlocks uint64
	// Bytes is the stream length; Units counts files (logical) or
	// blocks (image) dumped.
	Bytes, Units int64
	// Resumed marks a set completed across a checkpoint resume; its
	// stream spans the volumes of more than one attempt.
	Resumed bool
	// Media lists the volumes holding the stream, in stream order.
	Media []MediaRef
}

// Full reports whether the set needs no base.
func (ds *DumpSet) Full() bool {
	if ds.Engine == Image {
		return ds.BaseGen == 0
	}
	return ds.BaseDate == 0
}

// FileIndexEntry locates one file inside a logical dump stream: the
// stream position (in 1 KB dump units) where its header begins, derived
// with the path from the stream that landed (engine.Land). The planner
// uses presence — which chain members contain a path — and a
// seek-capable source can use Unit to space directly to the file.
type FileIndexEntry struct {
	Path string
	Ino  uint32
	Unit int64
}

// MediaEventKind enumerates media-lifecycle transitions.
type MediaEventKind uint8

const (
	// MediaRegister introduces a volume into the pool (scratch).
	MediaRegister MediaEventKind = 1
	// MediaActivate marks a volume holding live dump data.
	MediaActivate MediaEventKind = 2
	// MediaReclaim returns an expired volume to scratch (erased).
	MediaReclaim MediaEventKind = 3
	// MediaQuarantine freezes a volume the scrubber found damaged
	// beyond repair: never erased, never rewritten, held only so its
	// still-readable sets stay available as a last resort.
	MediaQuarantine MediaEventKind = 4
)

func (k MediaEventKind) String() string {
	switch k {
	case MediaRegister:
		return "register"
	case MediaActivate:
		return "activate"
	case MediaReclaim:
		return "reclaim"
	case MediaQuarantine:
		return "quarantine"
	}
	return fmt.Sprintf("media-event(%d)", uint8(k))
}

// MediaEvent is one lifecycle transition of a media volume.
type MediaEvent struct {
	Kind   MediaEventKind
	Volume string
	Pool   string
	Time   int64
}

// VolumeState is a media volume's lifecycle position, folded from its
// media events.
type VolumeState uint8

const (
	// Scratch volumes are empty and writable.
	Scratch VolumeState = iota
	// Active volumes hold data of at least one unexpired dump set and
	// are protected against erasure.
	Active
	// Expired volumes are active ones whose every set has expired; they
	// are awaiting reclamation and still readable (last-resort
	// restores). The state is derived when asked, never journaled.
	Expired
	// Quarantined volumes carry media damage a read-back found. They
	// are never erased or reused, and a set committed to one later
	// leaves it quarantined: quarantine is terminal.
	Quarantined
)

func (s VolumeState) String() string {
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

// MediaVolume is the catalog's view of one media volume.
type MediaVolume struct {
	Label string
	// Pool is the pool whose event first named the volume; events from
	// any other pool leave it alone.
	Pool  string
	State VolumeState
	// Sets are the IDs of the sets since the volume's last reclaim whose
	// media names it, in completion order.
	Sets []uint64
}

// volume is one volume's folded lifecycle: what MediaVolume is computed
// from.
type volume struct {
	pool  string
	state VolumeState // never Expired: that is derived
	from  uint64      // the next set ID at the last reclaim
}

// Expiry marks a dump set expired by retention.
type Expiry struct {
	SetID uint64
	Time  int64
}

// SetHealthState is a dump set's integrity verdict.
type SetHealthState uint8

const (
	// HealthDamaged marks a set whose read-back found damage (the
	// scrubber's, or the landing's): the restore planner routes around
	// it.
	HealthDamaged SetHealthState = 1
	// HealthRepaired marks a set whose damaged records were rewritten
	// in place and re-verified clean. Nothing writes it any more; a
	// journal that holds one still replays, the set back in service.
	HealthRepaired SetHealthState = 2
)

func (s SetHealthState) String() string {
	switch s {
	case HealthDamaged:
		return "damaged"
	case HealthRepaired:
		return "repaired"
	}
	return fmt.Sprintf("health(%d)", uint8(s))
}

// SetHealth is one integrity verdict on a dump set, journaled by the
// scrubber or a landing's read-back. The latest record for a set wins,
// so a repaired record (an older journal's) after a damage mark
// returns the set to service.
type SetHealth struct {
	SetID  uint64
	State  SetHealthState
	Time   int64
	Reason string
}

// Record is any journal payload; exposed so the fuzzer and tools can
// decode frames generically.
type Record interface{ isRecord() }

type fileIndexRecord struct {
	SetID   uint64
	Entries []FileIndexEntry
}

func (DumpSet) isRecord()         {}
func (fileIndexRecord) isRecord() {}
func (Expiry) isRecord()          {}
func (MediaEvent) isRecord()      {}
func (SetHealth) isRecord()       {}

// Payload kinds. Kind 5 was a push-stream checkpoint that nothing
// writes any more; it is reserved and never reused, so a journal that
// holds one fails to open rather than replaying it as something else.
const (
	kindDumpSet   = 1
	kindFileIndex = 2
	kindExpiry    = 3
	kindMedia     = 4
	kindSetHealth = 6
)

// Catalog is the replayed journal state plus the append side.
type Catalog struct {
	store Store
	next  uint64 // next DumpSet ID

	sets     []DumpSet
	byID     map[uint64]int
	index    map[uint64][]FileIndexEntry
	expired  map[uint64]int64
	events   []MediaEvent
	health   map[uint64]SetHealth
	vols     map[string]*volume
	volOrder []string // labels in the order their first event came

	// Chunk-layer state (see chunk.go): the SHA-256 chunk index and
	// per-set manifests, plus stored/dead byte accounting.
	chunks      map[chunk.Hash]chunk.Entry
	manifests   map[uint64]chunk.Manifest
	chunkStored int64
	chunkDead   int64

	// TornBytes is how many trailing journal bytes recovery discarded
	// as a torn or corrupt final record (0 = clean open).
	TornBytes int64

	appends int64 // journal records appended by this Catalog
}

// Open replays the journal in store and returns the catalog positioned
// to append. A torn or corrupt tail is truncated away: every record
// whose Append call returned survives; the one a crash interrupted
// does not, and was never acknowledged.
func Open(store Store) (*Catalog, error) {
	buf, err := store.ReadAll()
	if err != nil {
		return nil, err
	}
	c := &Catalog{
		store:     store,
		next:      1,
		byID:      make(map[uint64]int),
		index:     make(map[uint64][]FileIndexEntry),
		expired:   make(map[uint64]int64),
		health:    make(map[uint64]SetHealth),
		vols:      make(map[string]*volume),
		chunks:    make(map[chunk.Hash]chunk.Entry),
		manifests: make(map[uint64]chunk.Manifest),
	}
	valid, err := ScanFrames(buf, func(off int64, p []byte) error {
		rec, err := DecodeRecord(p)
		if err != nil {
			// An intact frame holding an undecodable payload is
			// corruption, not a torn tail; surface it with the frame's
			// offset and kind byte rather than silently dropping
			// acknowledged history.
			var kind uint8
			if len(p) > 0 {
				kind = p[0]
			}
			return &CorruptError{Offset: off, Kind: kind, Err: err}
		}
		c.apply(rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if valid < int64(len(buf)) {
		c.TornBytes = int64(len(buf)) - valid
		// A crash tears at most the single frame whose Append never
		// returned, and that frame is the journal's last: nothing
		// intact can follow it. A bad region bigger than one record,
		// or one with intact frames beyond it, is mid-journal
		// corruption of acknowledged history — refuse rather than
		// silently truncate it away.
		if c.TornBytes > frameHdr+MaxRecord || intactFrameAfter(buf, valid) {
			return nil, &CorruptError{Offset: valid,
				Err: fmt.Errorf("%d bad bytes before intact records", c.TornBytes)}
		}
		if err := store.Truncate(valid); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// apply folds one decoded record into the state.
func (c *Catalog) apply(rec Record) {
	switch r := rec.(type) {
	case DumpSet:
		c.byID[r.ID] = len(c.sets)
		c.sets = append(c.sets, r)
		if r.ID >= c.next {
			c.next = r.ID + 1
		}
	case fileIndexRecord:
		c.index[r.SetID] = r.Entries
	case Expiry:
		c.expired[r.SetID] = r.Time
	case MediaEvent:
		c.events = append(c.events, r)
		c.applyMedia(r)
	case SetHealth:
		c.health[r.SetID] = r
	default:
		c.applyChunk(rec)
	}
}

// applyMedia folds one lifecycle event into its volume: the first event
// naming a label creates it, scratch, in that event's pool; activate
// makes it active, reclaim scratch again (its set list restarting at
// the next set ID), and quarantine freezes it for good.
func (c *Catalog) applyMedia(ev MediaEvent) {
	v, ok := c.vols[ev.Volume]
	if !ok {
		v = &volume{pool: ev.Pool}
		c.vols[ev.Volume] = v
		c.volOrder = append(c.volOrder, ev.Volume)
	}
	if v.pool != ev.Pool || v.state == Quarantined {
		return
	}
	switch ev.Kind {
	case MediaActivate:
		v.state = Active
	case MediaReclaim:
		v.state, v.from = Scratch, c.next
	case MediaQuarantine:
		v.state = Quarantined
	}
}

// append frames, persists and applies one record.
func (c *Catalog) append(rec Record, payload []byte) error {
	if err := c.store.Append(frame(payload)); err != nil {
		return err
	}
	c.appends++
	c.apply(rec)
	return nil
}

// RegisterMetrics installs pull collectors for the catalog: journal
// appends, torn-tail recoveries, and the live/total dump-set gauges.
func (c *Catalog) RegisterMetrics(r *obs.Registry) {
	r.RegisterFunc("catalog_appends_total", obs.KindCounter, nil, func() float64 {
		return float64(c.appends)
	})
	r.RegisterFunc("catalog_torn_bytes", obs.KindGauge, nil, func() float64 {
		return float64(c.TornBytes)
	})
	r.RegisterFunc("catalog_recoveries_total", obs.KindCounter, nil, func() float64 {
		if c.TornBytes > 0 {
			return 1
		}
		return 0
	})
	r.RegisterFunc("catalog_sets", obs.KindGauge, nil, func() float64 {
		return float64(len(c.sets))
	})
	r.RegisterFunc("catalog_live_sets", obs.KindGauge, nil, func() float64 {
		return float64(len(c.Live()))
	})
	r.RegisterFunc("catalog_damaged_sets", obs.KindGauge, nil, func() float64 {
		return float64(len(c.DamagedSets()))
	})
}

// AppendDumpSet records a completed dump set, assigning and returning
// its ID. The record is durable when AppendDumpSet returns.
func (c *Catalog) AppendDumpSet(ds DumpSet) (uint64, error) {
	if ds.Engine != Logical && ds.Engine != Image {
		// The decoder rejects it, so journaling it would make every
		// later Open of this catalog fail.
		return 0, fmt.Errorf("catalog: unknown engine %d", ds.Engine)
	}
	ds.ID = c.next
	if err := c.append(ds, encodeDumpSet(&ds)); err != nil {
		return 0, err
	}
	return ds.ID, nil
}

// AppendFileIndex attaches a per-file seek index to a recorded set.
func (c *Catalog) AppendFileIndex(setID uint64, entries []FileIndexEntry) error {
	if _, ok := c.byID[setID]; !ok {
		return fmt.Errorf("catalog: file index for unknown set %d", setID)
	}
	r := fileIndexRecord{SetID: setID, Entries: entries}
	return c.append(r, encodeFileIndex(&r))
}

// Expire marks a dump set expired at now. Idempotent.
func (c *Catalog) Expire(setID uint64, now int64) error {
	if _, ok := c.byID[setID]; !ok {
		return fmt.Errorf("catalog: expire unknown set %d", setID)
	}
	if _, done := c.expired[setID]; done {
		return nil
	}
	r := Expiry{SetID: setID, Time: now}
	return c.append(r, encodeExpiry(&r))
}

// AppendMediaEvent records a media-lifecycle transition.
func (c *Catalog) AppendMediaEvent(ev MediaEvent) error {
	return c.append(ev, encodeMediaEvent(&ev))
}

// MarkDamaged journals a damaged verdict on a dump set — reading it
// back found corruption. The verdict is final: nothing rewrites a set
// in place, so the planner routes around it from now on. Idempotent
// while the set stays damaged.
func (c *Catalog) MarkDamaged(setID uint64, now int64, reason string) error {
	if _, ok := c.byID[setID]; !ok {
		return fmt.Errorf("catalog: mark unknown set %d damaged", setID)
	}
	if h, ok := c.health[setID]; ok && h.State == HealthDamaged {
		return nil
	}
	r := SetHealth{SetID: setID, State: HealthDamaged, Time: now, Reason: reason}
	return c.append(r, encodeSetHealth(&r))
}

// Damaged reports whether a set's latest health verdict is damaged,
// and why.
func (c *Catalog) Damaged(setID uint64) (string, bool) {
	h, ok := c.health[setID]
	if !ok || h.State != HealthDamaged {
		return "", false
	}
	return h.Reason, true
}

// DamagedSets returns the IDs currently marked damaged, in completion
// order.
func (c *Catalog) DamagedSets() []uint64 {
	var out []uint64
	for _, ds := range c.sets {
		if _, bad := c.Damaged(ds.ID); bad {
			out = append(out, ds.ID)
		}
	}
	return out
}

// Volume returns the folded view of a media volume: its state, with
// Expired derived (active, holding sets, every one expired), and its
// sets.
func (c *Catalog) Volume(label string) (MediaVolume, bool) {
	v, ok := c.vols[label]
	if !ok {
		return MediaVolume{}, false
	}
	mv := MediaVolume{Label: label, Pool: v.pool, State: v.state}
	live := false
	for _, ds := range c.sets {
		if ds.ID < v.from {
			continue
		}
		for _, m := range ds.Media {
			if m.Volume == label {
				mv.Sets = append(mv.Sets, ds.ID)
				_, dead := c.expired[ds.ID]
				live = live || !dead
				break
			}
		}
	}
	if mv.State == Active && len(mv.Sets) > 0 && !live {
		mv.State = Expired
	}
	return mv, true
}

// Volumes returns the volumes of a pool, in the order the journal
// first named them.
func (c *Catalog) Volumes(pool string) []MediaVolume {
	var out []MediaVolume
	for _, l := range c.volOrder {
		if c.vols[l].pool == pool {
			mv, _ := c.Volume(l)
			out = append(out, mv)
		}
	}
	return out
}

// HealthLabel renders a set's operator-facing health: "damaged" when
// marked so, "quarantined-media" when any of its volumes is
// quarantined, otherwise "ok".
func (c *Catalog) HealthLabel(setID uint64) string {
	if _, bad := c.Damaged(setID); bad {
		return "damaged"
	}
	if ds, ok := c.Set(setID); ok {
		for _, m := range ds.Media {
			if v, ok := c.vols[m.Volume]; ok && v.state == Quarantined {
				return "quarantined-media"
			}
		}
	}
	return "ok"
}

// Sets returns every recorded dump set, in completion order.
func (c *Catalog) Sets() []DumpSet {
	out := make([]DumpSet, len(c.sets))
	copy(out, c.sets)
	return out
}

// Set returns the dump set with the given ID.
func (c *Catalog) Set(id uint64) (DumpSet, bool) {
	i, ok := c.byID[id]
	if !ok {
		return DumpSet{}, false
	}
	return c.sets[i], true
}

// Expired reports whether a set has been expired, and when.
func (c *Catalog) Expired(id uint64) (int64, bool) {
	t, ok := c.expired[id]
	return t, ok
}

// Live returns the unexpired dump sets, in completion order.
func (c *Catalog) Live() []DumpSet {
	var out []DumpSet
	for _, ds := range c.sets {
		if _, dead := c.expired[ds.ID]; !dead {
			out = append(out, ds)
		}
	}
	return out
}

// FileIndex returns the per-file index recorded for a set (nil if
// none was recorded).
func (c *Catalog) FileIndex(setID uint64) []FileIndexEntry {
	return c.index[setID]
}

// MediaEvents returns the recorded media-lifecycle history.
func (c *Catalog) MediaEvents() []MediaEvent {
	out := make([]MediaEvent, len(c.events))
	copy(out, c.events)
	return out
}

// DumpDates reconstructs the logical dump-date history from the
// journal — the durable /etc/dumpdates the in-memory logical.DumpDates
// used to lose on process exit. Expired sets still count: expiry frees
// media, it does not rewrite incremental history.
func (c *Catalog) DumpDates() *logical.DumpDates {
	d := logical.NewDumpDates()
	for _, ds := range c.sets {
		if ds.Engine == Logical {
			d.Record(ds.FSID, int(ds.Level), ds.Date)
		}
	}
	return d
}

// --- payload encoding: [kind u8][version u8] then fixed LE fields and
// length-prefixed strings. Decoding is defensive throughout — journal
// bytes are untrusted input (see the fuzz test).

// errRecord is what every payload decoding error wraps.
var errRecord = errors.New("catalog: bad record")

func encodeDumpSet(ds *DumpSet) []byte {
	e := &codec.Enc{}
	e.U8(kindDumpSet)
	e.U8(1)
	e.U64(ds.ID)
	e.U8(uint8(ds.Engine))
	e.Str(ds.FSID)
	e.Str(ds.Snap)
	e.U32(uint32(ds.Level))
	e.I64(ds.Date)
	e.I64(ds.BaseDate)
	e.U64(ds.Gen)
	e.U64(ds.BaseGen)
	e.U64(ds.NBlocks)
	e.I64(ds.Bytes)
	e.I64(ds.Units)
	e.Bool(ds.Resumed)
	e.U32(uint32(len(ds.Media)))
	for _, m := range ds.Media {
		e.Str(m.Volume)
		e.I64(m.Start)
	}
	return e.B
}

func encodeFileIndex(r *fileIndexRecord) []byte {
	e := &codec.Enc{}
	e.U8(kindFileIndex)
	e.U8(1)
	e.U64(r.SetID)
	e.U32(uint32(len(r.Entries)))
	for _, f := range r.Entries {
		e.Str(f.Path)
		e.U32(f.Ino)
		e.I64(f.Unit)
	}
	return e.B
}

func encodeExpiry(r *Expiry) []byte {
	e := &codec.Enc{}
	e.U8(kindExpiry)
	e.U8(1)
	e.U64(r.SetID)
	e.I64(r.Time)
	return e.B
}

func encodeSetHealth(r *SetHealth) []byte {
	e := &codec.Enc{}
	e.U8(kindSetHealth)
	e.U8(1)
	e.U64(r.SetID)
	e.U8(uint8(r.State))
	e.I64(r.Time)
	e.Str(r.Reason)
	return e.B
}

func encodeMediaEvent(ev *MediaEvent) []byte {
	e := &codec.Enc{}
	e.U8(kindMedia)
	e.U8(1)
	e.U8(uint8(ev.Kind))
	e.Str(ev.Volume)
	e.Str(ev.Pool)
	e.I64(ev.Time)
	return e.B
}

// DecodeRecord parses one journal payload. It is the untrusted-input
// boundary of the catalog: arbitrary bytes must produce a record or an
// error, never a panic or an oversized allocation.
func DecodeRecord(p []byte) (Record, error) {
	d := &codec.Dec{B: p, Max: MaxRecord, Bad: errRecord}
	kind := d.U8()
	ver := d.U8()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if ver != 1 && (kind != kindChunkIndex || ver != chunkIndexPacked) {
		return nil, fmt.Errorf("catalog: record version %d", ver)
	}
	switch kind {
	case kindDumpSet:
		var ds DumpSet
		ds.ID = d.U64()
		ds.Engine = Engine(d.U8())
		ds.FSID = d.Str()
		ds.Snap = d.Str()
		ds.Level = int32(d.U32())
		ds.Date = d.I64()
		ds.BaseDate = d.I64()
		ds.Gen = d.U64()
		ds.BaseGen = d.U64()
		ds.NBlocks = d.U64()
		ds.Bytes = d.I64()
		ds.Units = d.I64()
		ds.Resumed = d.Bool()
		n := d.Count()
		for i := 0; i < n; i++ {
			var m MediaRef
			m.Volume = d.Str()
			m.Start = d.I64()
			if d.Err() != nil {
				return nil, d.Err()
			}
			ds.Media = append(ds.Media, m)
		}
		if err := d.Done(); err != nil {
			return nil, err
		}
		if ds.ID == 0 {
			return nil, fmt.Errorf("catalog: dump set with id 0")
		}
		if ds.Engine != Logical && ds.Engine != Image {
			return nil, fmt.Errorf("catalog: unknown engine %d", ds.Engine)
		}
		return ds, nil
	case kindFileIndex:
		var r fileIndexRecord
		r.SetID = d.U64()
		n := d.Count()
		for i := 0; i < n; i++ {
			var f FileIndexEntry
			f.Path = d.Str()
			f.Ino = d.U32()
			f.Unit = d.I64()
			if d.Err() != nil {
				return nil, d.Err()
			}
			r.Entries = append(r.Entries, f)
		}
		if err := d.Done(); err != nil {
			return nil, err
		}
		return r, nil
	case kindExpiry:
		var r Expiry
		r.SetID = d.U64()
		r.Time = d.I64()
		if err := d.Done(); err != nil {
			return nil, err
		}
		return r, nil
	case kindMedia:
		var ev MediaEvent
		ev.Kind = MediaEventKind(d.U8())
		ev.Volume = d.Str()
		ev.Pool = d.Str()
		ev.Time = d.I64()
		if err := d.Done(); err != nil {
			return nil, err
		}
		return ev, nil
	case kindSetHealth:
		var r SetHealth
		r.SetID = d.U64()
		r.State = SetHealthState(d.U8())
		r.Time = d.I64()
		r.Reason = d.Str()
		if err := d.Done(); err != nil {
			return nil, err
		}
		if r.SetID == 0 {
			return nil, fmt.Errorf("catalog: set-health record for id 0")
		}
		if r.State != HealthDamaged && r.State != HealthRepaired {
			return nil, fmt.Errorf("catalog: unknown health state %d", r.State)
		}
		return r, nil
	}
	return decodeChunkRecord(kind, ver, d)
}
