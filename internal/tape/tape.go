// Package tape simulates the backup media of the paper: DLT-7000 tape
// drives fed by Breece-Hill stackers. A Drive streams variable-length
// records onto a Cartridge at a fixed transport rate, retains the real
// bytes for later reads, enforces cartridge capacity (so dumps span
// volumes, exercising the multi-volume paths of both dump formats) and
// charges cartridge-change latency when the stacker swaps media.
package tape

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bufpool"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Errors returned by drives.
var (
	// ErrEndOfMedia is returned by WriteRecord when the current
	// cartridge is full; the caller changes cartridges and retries.
	ErrEndOfMedia = errors.New("tape: end of media")
	// ErrEndOfTape is returned by ReadRecord at the end of recorded data.
	ErrEndOfTape = errors.New("tape: end of recorded data")
	// ErrFileMark is returned by ReadRecord when positioned at a file mark.
	ErrFileMark = errors.New("tape: file mark")
	// ErrNoCartridge is returned when no cartridge is loaded.
	ErrNoCartridge = errors.New("tape: no cartridge loaded")
)

// Params describes a drive's performance. Defaults model a DLT-7000:
// 5 MB/s native, ~8.5 MB/s with compression engaged (the effective
// rate the paper's numbers imply), 90 s cartridge change.
type Params struct {
	// Rate is the streaming transfer rate in bytes/second.
	Rate float64
	// PerRecord is fixed per-record command overhead.
	PerRecord time.Duration
	// ChangeTime is the stacker's cartridge-change latency.
	ChangeTime time.Duration
	// WriteBehind is the drive buffer depth, as owed service time.
	WriteBehind time.Duration
	// Capacity is the cartridge capacity in bytes (0 = unlimited).
	Capacity int64
}

// DefaultParams returns the DLT-7000 model used by the benchmarks.
func DefaultParams() Params {
	return Params{
		Rate:        8.5 * (1 << 20),
		PerRecord:   200 * time.Microsecond,
		ChangeTime:  90 * time.Second,
		WriteBehind: 100 * time.Millisecond, // ~0.85 MB drive buffer
	}
}

// A Cartridge holds recorded data: a sequence of records and file
// marks. Cartridges survive being unloaded, so a restore can reload
// what a backup wrote — or a different filer can (cross-restore).
//
// The recorded bytes live in slabs taken from bufpool: a record is a
// sub-slice of the last slab, so recording one allocates nothing once
// the pool is warm. No slab is ever lent out — every read copies — so
// Erase can hand them all back.
type Cartridge struct {
	Label    string
	records  []record
	slabs    []*[]byte // every buffer the records point into
	free     []byte    // the unused tail of the last slab
	used     int64
	damaged  bool         // latched by a persistent media write error
	badReads map[int]bool // record indexes latched unreadable
	marginal map[int]bool // record indexes whose next read fails, once
}

// slabSize is the room one pooled slab gives the records carved from it.
const slabSize = 1 << 20

// record is one tape record or a file mark.
type record struct {
	data []byte // nil means file mark
	mark bool
}

// NewCartridge creates an empty labelled cartridge.
func NewCartridge(label string) *Cartridge { return &Cartridge{Label: label} }

// Bytes returns the number of data bytes recorded.
func (c *Cartridge) Bytes() int64 { return c.used }

// Records returns the number of records (excluding file marks).
func (c *Cartridge) Records() int {
	n := 0
	for _, r := range c.records {
		if !r.mark {
			n++
		}
	}
	return n
}

// Index returns the raw write-head position: the count of records and
// file marks on the cartridge. The backup catalog records it before a
// dump starts so a restore can position to the dump's first record
// with Rewind + SpaceRecords(index), even on a cartridge shared by
// several dump sets.
func (c *Cartridge) Index() int { return len(c.records) }

// Erase wipes the cartridge back to scratch: all records, file marks
// and latched damage are gone, and the slabs that held the records go
// back to bufpool (kept on a rotated-out cartridge, they would hold a
// pass's worth of tape in memory beside the next pass's). Only the
// media pool calls this, and only after every dump set on the
// cartridge has expired — the overwrite protection a tape library's
// scratch rotation relies on.
func (c *Cartridge) Erase() {
	clear(c.records)
	c.records = c.records[:0]
	for _, p := range c.slabs {
		bufpool.Put(p)
	}
	clear(c.slabs)
	c.slabs = c.slabs[:0]
	c.free = nil
	c.used = 0
	c.damaged = false
	c.badReads = nil
	c.marginal = nil
}

// keep copies data onto the cartridge and returns the copy: the next
// len(data) bytes of the last slab, a fresh slab when those run out, or
// a buffer of its own for a record larger than a slab.
func (c *Cartridge) keep(data []byte) []byte {
	n := len(data)
	var cp []byte
	if n > slabSize {
		p := bufpool.Get(n)
		c.slabs = append(c.slabs, p)
		cp = (*p)[:n:n]
	} else {
		if n > len(c.free) {
			p := bufpool.Get(slabSize)
			c.slabs = append(c.slabs, p)
			c.free = *p
		}
		cp = c.free[:n:n]
		c.free = c.free[n:]
	}
	copy(cp, data)
	return cp
}

// CorruptRecord flips bits in recorded record index i (counting data
// records only), for restore-resilience tests. It reports whether a
// record was corrupted.
func (c *Cartridge) CorruptRecord(i int) bool {
	n := 0
	for j := range c.records {
		if c.records[j].mark {
			continue
		}
		if n == i {
			for k := range c.records[j].data {
				c.records[j].data[k] ^= 0xFF
			}
			return true
		}
		n++
	}
	return false
}

// CorruptRecordAt silently flips bits in the record at raw index i
// (the Index() coordinate, counting file marks). Unlike InjectLatentFault
// the record stays readable — detection is up to stream checksums,
// modelling rot the drive's ECC misses. It reports whether a data
// record was corrupted.
func (c *Cartridge) CorruptRecordAt(i int) bool {
	if i < 0 || i >= len(c.records) || c.records[i].mark {
		return false
	}
	for k := range c.records[i].data {
		c.records[i].data[k] ^= 0xFF
	}
	return true
}

// InjectLatentFault latches the record at raw index i unreadable — the
// latent-sector rot a drive's ECC does catch, surfacing as a persistent
// MediaError on read. It reports whether a data record was latched.
func (c *Cartridge) InjectLatentFault(i int) bool {
	if i < 0 || i >= len(c.records) || c.records[i].mark {
		return false
	}
	if c.badReads == nil {
		c.badReads = make(map[int]bool)
	}
	c.badReads[i] = true
	return true
}

// InjectMarginalRead makes the next read of the record at raw index i
// fail with a transient MediaError, once, on whatever drive the
// cartridge is in — a marginal spot that reads on the repositioning
// pass. It reports whether a data record was marked.
func (c *Cartridge) InjectMarginalRead(i int) bool {
	if i < 0 || i >= len(c.records) || c.records[i].mark {
		return false
	}
	if c.marginal == nil {
		c.marginal = make(map[int]bool)
	}
	c.marginal[i] = true
	return true
}

// RecordAt is the scrubber's maintenance read: it returns a copy of the
// record at raw index i without the drive fault model or time charges.
// unreadable reports a latched read fault (data is nil then); mark
// reports a file mark; ok is false past the recorded extent.
func (c *Cartridge) RecordAt(i int) (data []byte, mark, unreadable, ok bool) {
	if i < 0 || i >= len(c.records) {
		return nil, false, false, false
	}
	r := c.records[i]
	if r.mark {
		return nil, true, false, true
	}
	if c.badReads[i] {
		return nil, false, true, true
	}
	cp := make([]byte, len(r.data))
	copy(cp, r.data)
	return cp, false, false, true
}

// RepairRecordAt rewrites the record at raw index i with known-good
// bytes (from a replica or RAID reconstruction), clearing any latched
// read fault — the in-place repair of the scrub subsystem. It refuses
// file marks and out-of-range indexes.
func (c *Cartridge) RepairRecordAt(i int, data []byte) bool {
	if i < 0 || i >= len(c.records) || c.records[i].mark || len(data) == 0 {
		return false
	}
	c.used += int64(len(data)) - int64(len(c.records[i].data))
	c.records[i].data = c.keep(data)
	delete(c.badReads, i)
	return true
}

// Drive is a simulated tape drive with an attached stacker (a queue of
// cartridges). Loading, reading, writing and changing cartridges all
// charge virtual time when a sim process is attached via the methods'
// Proc arguments (passed as *sim.Proc rather than ctx because tape use
// is always explicit in the dump engines).
type Drive struct {
	name    string
	params  Params
	station *sim.Station

	cart    *Cartridge
	pos     int    // read position in cart.records
	rbuf    []byte // the record ReadRecord lends, reused by every read
	stacker []*Cartridge

	bytesWritten int64
	bytesRead    int64
	changes      int

	// Fault-injection state (see faults.go).
	faults          *FaultConfig
	rng             *rand.Rand
	pendingFail     []bool // queued deterministic media write errors (transient?)
	pendingReadFail []bool // queued deterministic media read errors (transient?)
	skipDraw        bool   // next probabilistic write draw suppressed (retry of a transient)
	skipReadDraw    bool   // next probabilistic read draw suppressed (retry of a transient)
	offline         bool
	mediaErrors     int
	recordsWritten  int // successful data-record writes, for OfflineAfterRecords
}

// NewDrive creates a drive named name. env may be nil for untimed use.
func NewDrive(env *sim.Env, name string, p Params) *Drive {
	d := &Drive{name: name, params: p}
	if env != nil {
		d.station = sim.NewStation(env, name, p.WriteBehind)
	}
	return d
}

// Name returns the drive name.
func (d *Drive) Name() string { return d.name }

// Station returns the drive's sim station for utilization accounting
// (nil when untimed).
func (d *Drive) Station() *sim.Station { return d.station }

// RegisterMetrics installs pull collectors for the drive's traffic,
// record, volume-switch and media-error counters. Idempotent per
// (registry, drive).
func (d *Drive) RegisterMetrics(r *obs.Registry) {
	l := obs.Labels{"drive": d.name}
	r.RegisterFunc("tape_written_bytes_total", obs.KindCounter, l, func() float64 {
		return float64(d.bytesWritten)
	})
	r.RegisterFunc("tape_read_bytes_total", obs.KindCounter, l, func() float64 {
		return float64(d.bytesRead)
	})
	r.RegisterFunc("tape_records_total", obs.KindCounter, l, func() float64 {
		return float64(d.recordsWritten)
	})
	r.RegisterFunc("tape_volume_switches_total", obs.KindCounter, l, func() float64 {
		return float64(d.changes)
	})
	r.RegisterFunc("tape_media_errors_total", obs.KindCounter, l, func() float64 {
		return float64(d.mediaErrors)
	})
	r.RegisterFunc("tape_busy_seconds", obs.KindGauge, l, func() float64 {
		if d.station == nil {
			return 0
		}
		return d.station.Busy().Seconds()
	})
}

// Stats returns bytes written, bytes read and cartridge changes.
func (d *Drive) Stats() (written, read int64, changes int) {
	return d.bytesWritten, d.bytesRead, d.changes
}

// AddCartridges loads the stacker with cartridges, in order.
func (d *Drive) AddCartridges(carts ...*Cartridge) {
	d.stacker = append(d.stacker, carts...)
}

// Load mounts the next stacker cartridge, unloading any current one
// back to the rear of the stacker. It charges the change latency.
func (d *Drive) Load(p *sim.Proc) error {
	if d.offline {
		return ErrOffline
	}
	if len(d.stacker) == 0 {
		return ErrNoCartridge
	}
	if d.cart != nil {
		d.stacker = append(d.stacker, d.cart)
	}
	d.cart = d.stacker[0]
	d.stacker = d.stacker[1:]
	d.pos = 0
	d.changes++
	if d.station != nil {
		d.station.Sync(p, d.params.ChangeTime)
	}
	return nil
}

// Loaded returns the mounted cartridge, or nil.
func (d *Drive) Loaded() *Cartridge { return d.cart }

// Mount cycles the stacker until the cartridge labelled label is
// loaded. One pass over the stacker finds it or proves it is not
// there.
func (d *Drive) Mount(p *sim.Proc, label string) error {
	for tries := len(d.stacker); d.cart == nil || d.cart.Label != label; tries-- {
		if tries == 0 {
			return fmt.Errorf("tape: cartridge %q is not in drive %s", label, d.name)
		}
		if err := d.Load(p); err != nil {
			return err
		}
	}
	return nil
}

// Stacker returns the queued cartridges, front (next to load) first.
// The media pool uses it to adopt a filer's preloaded tape bank.
func (d *Drive) Stacker() []*Cartridge {
	out := make([]*Cartridge, len(d.stacker))
	copy(out, d.stacker)
	return out
}

// Rewind positions the read head at the beginning of the cartridge,
// charging time proportional to the tape to be rewound (at roughly 8x
// the streaming rate, like a DLT repositioning pass).
func (d *Drive) Rewind(p *sim.Proc) {
	if d.cart == nil {
		return
	}
	var passed int64
	for i := 0; i < d.pos && i < len(d.cart.records); i++ {
		passed += int64(len(d.cart.records[i].data))
	}
	if d.pos >= len(d.cart.records) {
		passed = d.cart.used
	}
	d.pos = 0
	if d.station != nil && passed > 0 {
		d.station.Sync(p, sim.TimeFor(int(passed), d.params.Rate*8))
	}
}

// WriteRecord appends a record to the mounted cartridge. It returns
// ErrEndOfMedia when the cartridge is at capacity; the caller should
// Load the next cartridge and retry. Writes are buffered: the caller
// blocks only when the drive buffer is full.
func (d *Drive) WriteRecord(p *sim.Proc, data []byte) error {
	if d.offline {
		return ErrOffline
	}
	if d.cart == nil {
		return ErrNoCartridge
	}
	if len(data) == 0 {
		return errors.New("tape: empty record")
	}
	if d.cart.damaged {
		return &MediaError{Record: len(d.cart.records)}
	}
	if d.params.Capacity > 0 && d.cart.used+int64(len(data)) > d.params.Capacity {
		return ErrEndOfMedia
	}
	if err := d.writeFault(); err != nil {
		return err
	}
	d.cart.records = append(d.cart.records, record{data: d.cart.keep(data)})
	d.cart.used += int64(len(data))
	d.bytesWritten += int64(len(data))
	d.recordsWritten++
	if d.station != nil {
		d.station.Async(p, d.params.PerRecord+sim.TimeFor(len(data), d.params.Rate))
	}
	if d.faults != nil && d.faults.OfflineAfterRecords > 0 && d.recordsWritten >= d.faults.OfflineAfterRecords {
		// The record made it to tape; the drive drops dead after it.
		d.offline = true
	}
	return nil
}

// WriteFileMark writes a file mark separating tape files.
func (d *Drive) WriteFileMark(p *sim.Proc) error {
	if d.cart == nil {
		return ErrNoCartridge
	}
	d.cart.records = append(d.cart.records, record{mark: true})
	if d.station != nil {
		d.station.Async(p, d.params.PerRecord)
	}
	return nil
}

// Flush blocks until the drive buffer has drained to media.
func (d *Drive) Flush(p *sim.Proc) {
	if d.station != nil {
		d.station.Drain(p)
	}
}

// ReadRecord returns the next record. At a file mark it returns
// (nil, ErrFileMark) and advances past the mark; at the end of data it
// returns (nil, ErrEndOfTape). The record is a copy in the drive's one
// read buffer, lent until the drive's next read: the cartridge stays
// isolated from whatever the caller does with it, and a caller that
// keeps a record copies it (the stream.Source contract).
//
// Reads are charged asynchronously against the transport, modelling
// the drive's read-ahead buffer (depth WriteBehind): the drive streams
// ahead of the consumer, so a consumer slower than the tape never
// stalls it, and a faster one is throttled to the streaming rate —
// which is why the paper's logical restore shows tape utilization
// under 100% while the filesystem path is the bottleneck.
func (d *Drive) ReadRecord(p *sim.Proc) ([]byte, error) {
	if d.offline {
		return nil, ErrOffline
	}
	if d.cart == nil {
		return nil, ErrNoCartridge
	}
	if d.pos >= len(d.cart.records) {
		return nil, ErrEndOfTape
	}
	r := d.cart.records[d.pos]
	if r.mark {
		d.pos++
		return nil, ErrFileMark
	}
	// Media read faults surface before the head advances: a transient
	// retry re-reads this record, a persistent fault parks the head
	// before the bad spot (SpaceRecords skips past it).
	if err := d.readFault(); err != nil {
		return nil, err
	}
	d.pos++
	d.bytesRead += int64(len(r.data))
	if d.station != nil {
		d.station.Async(p, d.params.PerRecord+sim.TimeFor(len(r.data), d.params.Rate))
	}
	d.rbuf = append(d.rbuf[:0], r.data...)
	return d.rbuf, nil
}

// ReadData returns the next data record of the mounted cartridge — the
// one read loop every consumer of recorded media (restore, verify,
// scrub, chunk fetch) sits on. File marks are skipped and the end of
// the recording is ErrEndOfTape, the caller's cue to change volumes.
// A transient media error (a marginal read the drive recovers on a
// repositioning pass) is retried under storage.DefaultRetryPolicy with
// the backoff charged to p; retries counts them. A persistent error —
// a damaged spot of tape — is returned when damaged is nil; otherwise
// damaged is told the volume and raw record index, the head spaces
// past the spot and reading goes on, leaving the stream formats'
// resynchronization to salvage the rest. ctx, when not nil, is polled
// before every attempt so a canceled restore stops retrying promptly.
func (d *Drive) ReadData(ctx context.Context, p *sim.Proc, damaged func(volume string, record int)) (rec []byte, retries int, err error) {
	retry := storage.DefaultRetryPolicy()
	attempt := 0
	for {
		if ctx != nil && ctx.Err() != nil {
			return nil, retries, ctx.Err()
		}
		rec, err = d.ReadRecord(p)
		switch {
		case err == nil:
			return rec, retries, nil
		case errors.Is(err, ErrFileMark):
		case IsTransientMedia(err):
			attempt++
			if attempt > retry.MaxRetries {
				return nil, retries, err
			}
			retries++
			if p != nil {
				p.Sleep(retry.Delay(attempt))
			}
		case damaged != nil && errors.Is(err, ErrMediaRead):
			// The head is parked before the latched spot: space one
			// record past it.
			var me *MediaError
			errors.As(err, &me)
			if serr := d.SpaceRecords(p, 1); serr != nil {
				return nil, retries, serr
			}
			damaged(d.cart.Label, me.Record)
			attempt = 0
		default:
			return nil, retries, err
		}
	}
}

// SeekFile positions the head immediately after the nth file mark
// (n = 0 rewinds to the start), spacing at search speed — how a
// stacker-less operator reaches the second dump on a multi-dump
// cartridge.
func (d *Drive) SeekFile(p *sim.Proc, n int) error {
	if d.cart == nil {
		return ErrNoCartridge
	}
	d.pos = 0
	if n == 0 {
		return nil
	}
	var passed int64
	marks := 0
	for d.pos < len(d.cart.records) {
		r := d.cart.records[d.pos]
		d.pos++
		passed += int64(len(r.data))
		if r.mark {
			marks++
			if marks == n {
				if d.station != nil {
					d.station.Sync(p, sim.TimeFor(int(passed), d.params.Rate*8))
				}
				return nil
			}
		}
	}
	return ErrEndOfTape
}

// SpaceRecords skips n records forward at search speed (much faster
// than reading), the way restore skips files it does not need.
func (d *Drive) SpaceRecords(p *sim.Proc, n int) error {
	if d.cart == nil {
		return ErrNoCartridge
	}
	var skipped int64
	for i := 0; i < n && d.pos < len(d.cart.records); i++ {
		skipped += int64(len(d.cart.records[d.pos].data))
		d.pos++
	}
	if d.station != nil {
		// Spacing runs at roughly 8x streaming speed on a DLT.
		d.station.Sync(p, sim.TimeFor(int(skipped), d.params.Rate*8))
	}
	return nil
}

// String implements fmt.Stringer.
func (d *Drive) String() string {
	label := "<none>"
	if d.cart != nil {
		label = d.cart.Label
	}
	return fmt.Sprintf("drive %s (cart %s, %d queued)", d.name, label, len(d.stacker))
}
