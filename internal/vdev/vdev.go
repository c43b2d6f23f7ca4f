// Package vdev implements a simulated disk drive: a real in-memory
// block store combined with a seek/rotation/transfer timing model
// charged against the discrete-event clock in internal/sim.
//
// The timing model is the load-bearing part of the reproduction: the
// paper attributes logical dump's poor scaling to "the essentially
// random order of the reads necessary to access files in their
// entirety" on a mature (fragmented) filesystem, while physical dump
// reads blocks in ascending order and streams. A disk here charges a
// full seek plus rotational latency whenever an access is not
// sequential with the previous one, so exactly that contrast emerges
// from the block layout the filesystem actually produces.
package vdev

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Params describes a disk's performance envelope. The defaults model a
// late-1990s 9 GB Fibre Channel drive of the kind attached to the F630
// in the paper (scaled-capacity, same rates).
type Params struct {
	// SeekTime is the average time to move the arm for a
	// non-sequential access.
	SeekTime time.Duration
	// RotLatency is the average rotational delay (half a revolution)
	// added to every non-sequential access.
	RotLatency time.Duration
	// TransferRate is the media rate in bytes per second once the
	// head is on track.
	TransferRate float64
	// PerOp is fixed controller/command overhead per operation.
	PerOp time.Duration
	// WriteBehind is how much service time the drive's write cache
	// may owe before writes block the caller.
	WriteBehind time.Duration
}

// DefaultParams returns the drive model used by the benchmark harness:
// 8 ms seek, 4 ms rotational latency, 10 MB/s media rate.
func DefaultParams() Params {
	return Params{
		SeekTime:     8 * time.Millisecond,
		RotLatency:   4 * time.Millisecond,
		TransferRate: 10 << 20,
		PerOp:        100 * time.Microsecond,
		WriteBehind:  60 * time.Millisecond,
	}
}

// nHeads is how many concurrent access positions a drive tracks —
// modelling command-queue reordering: a drive serving several
// interleaved sequential streams keeps each stream sequential instead
// of seeking on every switch. Four matches a modest tagged-queue
// depth.
const nHeads = 4

// headSet tracks recent access positions for sequentiality detection.
type headSet struct {
	pos  [nHeads]int
	next int // round-robin replacement cursor
}

func newHeadSet() headSet {
	var h headSet
	for i := range h.pos {
		// Far-away sentinels so first accesses count as seeks rather
		// than short forward skips.
		h.pos[i] = -1 << 30
	}
	return h
}

// Disk is a simulated disk drive. It stores real data (reads return
// what was written) and charges service time per access when the
// context carries a sim process.
type Disk struct {
	name    string
	store   storage.Device
	params  Params
	station *sim.Station

	readHeads  headSet
	writeHeads headSet

	// retry bounds the drive's own recovery of transient read faults
	// when the store is a fault-injecting device; the backoff is
	// charged to the simulated clock.
	retry  storage.RetryPolicy
	faults *storage.FaultDevice

	// Counters for the benchmark harness. Atomic so harness goroutines
	// can sample them while concurrent sim procs drive the disk.
	readBlocks  atomic.Int64
	writeBlocks atomic.Int64
	seeks       atomic.Int64
	retries     atomic.Int64
}

// New creates a disk of n blocks. env may be nil for untimed use.
func New(env *sim.Env, name string, n int, p Params) *Disk {
	d := &Disk{
		name:       name,
		store:      storage.NewMemDevice(n),
		params:     p,
		readHeads:  newHeadSet(),
		writeHeads: newHeadSet(),
		retry:      storage.DefaultRetryPolicy(),
	}
	if env != nil {
		d.station = sim.NewStation(env, name, p.WriteBehind)
	}
	return d
}

// NumBlocks implements storage.Device.
func (d *Disk) NumBlocks() int { return d.store.NumBlocks() }

// Name returns the disk's name, used as its metric label.
func (d *Disk) Name() string { return d.name }

// RegisterMetrics installs pull collectors over the drive's counters:
// reads, writes, seeks, retry-absorbed ("healed") faults, the injected
// fault counts, and accumulated busy time. Re-registration is
// idempotent, so rebuilding a volume on the same registry is safe.
func (d *Disk) RegisterMetrics(r *obs.Registry) {
	l := obs.Labels{"disk": d.name}
	r.RegisterFunc("vdev_read_blocks_total", obs.KindCounter, l, func() float64 {
		return float64(d.readBlocks.Load())
	})
	r.RegisterFunc("vdev_write_blocks_total", obs.KindCounter, l, func() float64 {
		return float64(d.writeBlocks.Load())
	})
	r.RegisterFunc("vdev_seeks_total", obs.KindCounter, l, func() float64 {
		return float64(d.seeks.Load())
	})
	r.RegisterFunc("vdev_retries_total", obs.KindCounter, l, func() float64 {
		return float64(d.retries.Load())
	})
	// Fault injection may be armed after registration; the closures
	// read d.faults at collection time.
	r.RegisterFunc("vdev_faults_injected_total", obs.KindCounter, l, func() float64 {
		if d.faults == nil {
			return 0
		}
		s := d.faults.FaultStats()
		return float64(s.Transient + s.Persistent + s.Write)
	})
	r.RegisterFunc("vdev_busy_seconds", obs.KindGauge, l, func() float64 {
		if d.station == nil {
			return 0
		}
		return d.station.Busy().Seconds()
	})
}

// Station returns the disk's sim station (nil when untimed), exposed
// for utilization accounting.
func (d *Disk) Station() *sim.Station { return d.station }

// Stats returns cumulative blocks read, blocks written, and seeks.
func (d *Disk) Stats() (reads, writes, seeks int64) {
	return d.readBlocks.Load(), d.writeBlocks.Load(), d.seeks.Load()
}

// InjectFaults interposes a fault-injecting layer between the drive's
// timing model and its block store and arms it with p. Calling it
// again re-arms the same layer. The returned FaultDevice exposes the
// deterministic Fail/FailRead API and injection stats.
func (d *Disk) InjectFaults(p storage.FaultProfile) *storage.FaultDevice {
	if d.faults == nil {
		d.faults = storage.NewFaultDevice(d.store)
		d.store = d.faults
	}
	d.faults.Arm(p)
	return d.faults
}

// SetRetryPolicy replaces the drive's transient-fault retry policy.
func (d *Disk) SetRetryPolicy(p storage.RetryPolicy) { d.retry = p }

// Retries returns how many transient-fault retries the drive has
// performed.
func (d *Disk) Retries() int64 { return d.retries.Load() }

// runCost computes the cost of an n-block run starting at bno against
// a head set, and reports whether it counted as a seek. The best head
// is used: exact continuation costs nothing extra; a short forward
// skip costs the media time of the skipped blocks (the head just
// waits for them to pass under it) when cheaper than repositioning;
// otherwise a full seek plus rotational latency is charged and the
// round-robin victim head is repositioned. Short skips matter for
// image dump, whose ascending scan hops over small free holes.
func (d *Disk) runCost(hs *headSet, bno, n int) (time.Duration, bool) {
	per := d.params.PerOp + sim.TimeFor(storage.BlockSize, d.params.TransferRate)
	t := time.Duration(n) * per
	seek := d.params.SeekTime + d.params.RotLatency
	best := seek
	slot := -1
	for i, h := range hs.pos {
		delta := bno - h - 1
		if delta == 0 {
			best, slot = 0, i
			break
		}
		if delta > 0 {
			if skip := time.Duration(delta) * sim.TimeFor(storage.BlockSize, d.params.TransferRate); skip < best {
				best, slot = skip, i
			}
		}
	}
	seeked := false
	if slot < 0 {
		slot = hs.next
		hs.next = (hs.next + 1) % nHeads
		seeked = true
		d.seeks.Add(1)
	}
	hs.pos[slot] = bno + n - 1
	return t + best, seeked
}

// ReadBlock implements storage.Device. Demand reads are synchronous:
// the caller waits for the data.
func (d *Disk) ReadBlock(ctx context.Context, bno int, buf []byte) error {
	if err := d.store.ReadBlock(ctx, bno, buf); err != nil {
		if err = d.retryRead(ctx, err, bno, 1, buf); err != nil {
			return err
		}
	}
	d.readBlocks.Add(1)
	if p := sim.ProcFrom(ctx); p != nil {
		svc, _ := d.runCost(&d.readHeads, bno, 1)
		d.station.Sync(p, svc)
	}
	return nil
}

// Prefetch charges the cost of reading bno without blocking the caller
// beyond the drive's write-behind depth. The filesystem's read-ahead
// uses this to warm its cache; the data itself is fetched by the
// caller when needed (the store is memory-backed, so only timing
// matters here).
func (d *Disk) Prefetch(ctx context.Context, bno int) {
	if bno < 0 || bno >= d.store.NumBlocks() {
		return
	}
	d.readBlocks.Add(1)
	if p := sim.ProcFrom(ctx); p != nil {
		svc, _ := d.runCost(&d.readHeads, bno, 1)
		d.station.Async(p, svc)
	}
}

// ReadRunAsync implements storage.Device: it reads n consecutive
// blocks starting at bno into buf (which must be n*BlockSize long),
// reserves the service time on the disk, charging at most one seek
// for the whole run, and returns the virtual time the run completes.
// Streaming readers (image dump) use runs so that several concurrent
// streams interleaving on one disk amortize their seeks over large
// runs instead of paying one per block; the RAID layer overlaps the
// member disks of a striped read by waiting only on the latest.
func (d *Disk) ReadRunAsync(ctx context.Context, bno, n int, buf []byte) (sim.Time, error) {
	if _, err := d.store.ReadRunAsync(ctx, bno, n, buf); err != nil {
		if err = d.retryRead(ctx, err, bno, n, buf); err != nil {
			return 0, err
		}
	}
	d.readBlocks.Add(int64(n))
	var done sim.Time
	if p := sim.ProcFrom(ctx); p != nil {
		svc, _ := d.runCost(&d.readHeads, bno, n)
		done = d.station.Schedule(p, svc)
	}
	return done, nil
}

// WriteRun writes n consecutive blocks starting at bno from buf,
// charging at most one seek, buffered like WriteBlock.
func (d *Disk) WriteRun(ctx context.Context, bno, n int, buf []byte) error {
	if err := d.store.WriteRun(ctx, bno, n, buf); err != nil {
		return err
	}
	d.writeBlocks.Add(int64(n))
	if p := sim.ProcFrom(ctx); p != nil {
		svc, _ := d.runCost(&d.writeHeads, bno, n)
		d.station.Async(p, svc)
	}
	return nil
}

// WriteBlock implements storage.Device. Writes go through the drive's
// write-behind cache: the caller blocks only when the cache is full.
func (d *Disk) WriteBlock(ctx context.Context, bno int, data []byte) error {
	if err := d.store.WriteBlock(ctx, bno, data); err != nil {
		return err
	}
	d.writeBlocks.Add(1)
	if p := sim.ProcFrom(ctx); p != nil {
		svc, _ := d.runCost(&d.writeHeads, bno, 1)
		d.station.Async(p, svc)
	}
	return nil
}

// retryRead recovers a failed store read by re-reading the whole run
// up to MaxRetries times while the error stays transient, sleeping
// the policy's backoff on the simulated clock before each attempt.
// The first error err is what the initial read returned; the final
// (possibly persistent) error is returned when retries are exhausted.
func (d *Disk) retryRead(ctx context.Context, err error, bno, n int, buf []byte) error {
	for attempt := 1; storage.IsTransient(err) && attempt <= d.retry.MaxRetries; attempt++ {
		// A canceled dump must not sleep out the rest of the backoff
		// budget; surface the cancellation between attempts.
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		d.retries.Add(1)
		d.retry.Charge(ctx, attempt)
		if n == 1 {
			err = d.store.ReadBlock(ctx, bno, buf)
		} else {
			_, err = d.store.ReadRunAsync(ctx, bno, n, buf)
		}
	}
	return err
}

// Flush blocks until all buffered writes have reached media.
func (d *Disk) Flush(ctx context.Context) {
	if p := sim.ProcFrom(ctx); p != nil {
		d.station.Drain(p)
	}
}
