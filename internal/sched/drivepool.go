package sched

import (
	"sync"
	"time"

	"repro/internal/ndmp"
	"repro/internal/obs"
)

// DrivePool implements ndmp.Gate.
var _ ndmp.Gate = (*DrivePool)(nil)

// DrivePoolConfig tunes a DrivePool.
type DrivePoolConfig struct {
	// Drives is the number of concurrent streams the pool admits — one
	// per tape drive (default 4). Everything past it waits.
	Drives int
	// MaxQueue bounds the wait queue; a Hello arriving with the queue
	// full is rejected outright (default 64, negative = no queue: every
	// over-capacity Hello rejects).
	MaxQueue int
	// Now is the pool's clock, virtual under a simulation (sim.Env.Now
	// wrapped) or wall time for a TCP serve (default: wall time).
	Now func() time.Duration
	// DriveRate caps each drive's byte rate; the pool's aggregate
	// bucket holds Drives×DriveRate tokens per second (0 = unlimited).
	// This is what makes the concurrency knee measurable: past
	// saturation, adding clients redistributes bytes instead of adding
	// throughput.
	DriveRate int64
	// DefaultRate is the byte-rate limit applied to every tenant
	// (0 = unlimited).
	DefaultRate int64
	// StaleAfter expires a waiter whose client stopped polling —
	// crashed mid-wait, or gave up at its DeadAfter (default 10s).
	StaleAfter time.Duration
}

// DrivePoolStats counts scheduler decisions.
type DrivePoolStats struct {
	Granted   int // streams admitted onto a drive
	Waited    int // Admit polls answered "keep waiting"
	Rejected  int // Hellos refused (queue full)
	Released  int // drive slots returned
	Expired   int // waiters dropped for not polling
	Throttled int // Charge calls denied by a rate bucket
}

// streamID identifies one admission-controlled stream.
type streamID struct {
	tenant  string
	session uint64
	stream  int
}

// waiter is one queued stream. The client polls by re-sending its
// Hello every heartbeat interval; lastPoll going stale means the
// client is gone and the queue slot can be reclaimed.
type waiter struct {
	id       streamID
	arrived  int64 // queue sequence, for FIFO tie-break
	lastPoll time.Duration
}

// bucket is a token bucket permitting debt: a charge always lands
// (the record is already on tape by the time the host asks), but a
// negative balance withholds window credit until refill repays it.
type bucket struct {
	rate   int64 // tokens (bytes) per second
	burst  int64
	tokens int64
	last   time.Duration
}

func (b *bucket) refill(now time.Duration) {
	if b.rate <= 0 {
		return
	}
	if now > b.last {
		b.tokens += int64(float64(b.rate) * (now - b.last).Seconds())
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
}

// ok reports whether the bucket is out of debt.
func (b *bucket) ok() bool { return b.rate <= 0 || b.tokens >= 0 }

// DrivePool is the multi-tenant drive scheduler: it admits up to
// Drives concurrent streams, queues the overflow (bounded, fair-share
// ordered, polled by the clients' own Hello retries), and
// meters bytes through per-tenant and aggregate token buckets. It
// implements the session layer's Gate interface; hang it on
// ndmp.Host.Gate.
type DrivePool struct {
	cfg DrivePoolConfig

	mu      sync.Mutex
	active  map[streamID]bool
	waiting map[streamID]*waiter
	arrival int64
	stats   DrivePoolStats
	tenants map[string]*bucket
	agg     bucket
}

// NewDrivePool builds a pool over cfg.
func NewDrivePool(cfg DrivePoolConfig) *DrivePool {
	if cfg.Drives <= 0 {
		cfg.Drives = 4
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 64
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = 10 * time.Second
	}
	if cfg.Now == nil {
		start := time.Now()
		cfg.Now = func() time.Duration { return time.Since(start) }
	}
	p := &DrivePool{
		cfg:     cfg,
		active:  make(map[streamID]bool),
		waiting: make(map[streamID]*waiter),
		tenants: make(map[string]*bucket),
	}
	now := cfg.Now()
	if cfg.DriveRate > 0 {
		rate := cfg.DriveRate * int64(cfg.Drives)
		p.agg = bucket{rate: rate, burst: rate, tokens: rate, last: now}
	}
	return p
}

// Stats returns a snapshot of the pool's counters.
func (p *DrivePool) Stats() DrivePoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Active returns the number of admitted streams.
func (p *DrivePool) Active() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.active)
}

// Queued returns the number of waiting streams.
func (p *DrivePool) Queued() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.waiting)
}

// RegisterMetrics installs pull collectors for the pool.
func (p *DrivePool) RegisterMetrics(r *obs.Registry) {
	snap := func(read func(DrivePoolStats) float64) func() float64 {
		return func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return read(p.stats)
		}
	}
	r.RegisterFunc("sched_pool_granted_total", obs.KindCounter, nil, snap(func(s DrivePoolStats) float64 { return float64(s.Granted) }))
	r.RegisterFunc("sched_pool_rejected_total", obs.KindCounter, nil, snap(func(s DrivePoolStats) float64 { return float64(s.Rejected) }))
	r.RegisterFunc("sched_pool_expired_total", obs.KindCounter, nil, snap(func(s DrivePoolStats) float64 { return float64(s.Expired) }))
	r.RegisterFunc("sched_pool_throttled_total", obs.KindCounter, nil, snap(func(s DrivePoolStats) float64 { return float64(s.Throttled) }))
	r.RegisterFunc("sched_pool_active_streams", obs.KindGauge, nil, func() float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return float64(len(p.active))
	})
	r.RegisterFunc("sched_pool_queued_streams", obs.KindGauge, nil, func() float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return float64(len(p.waiting))
	})
}

// Admit decides one stream's admission. Idempotent per id: an already
// admitted stream answers Granted without consuming another drive;
// a queued stream's poll refreshes its liveness and re-checks whether
// it is now the best waiter for a free drive.
func (p *DrivePool) Admit(tenant string, session uint64, stream int) (ndmp.Admission, string) {
	id := streamID{tenant, session, stream}
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.cfg.Now()
	p.expireLocked(now)
	if p.active[id] {
		return ndmp.AdmitGranted, ""
	}
	w := p.waiting[id]
	if w != nil {
		w.lastPoll = now
	}
	if len(p.active) < p.cfg.Drives && p.bestWaiterLocked(id) {
		delete(p.waiting, id)
		p.active[id] = true
		p.stats.Granted++
		return ndmp.AdmitGranted, ""
	}
	if w == nil {
		if len(p.waiting) >= p.cfg.MaxQueue {
			p.stats.Rejected++
			return ndmp.AdmitReject, "drive pool busy: wait queue full"
		}
		p.arrival++
		p.waiting[id] = &waiter{id: id, arrived: p.arrival, lastPoll: now}
	}
	p.stats.Waited++
	return ndmp.AdmitWait, ""
}

// bestWaiterLocked reports whether id should win the next free drive:
// fair share first (fewest admitted streams for the tenant), then
// earliest arrival. An id not yet in
// the queue competes as if it had just joined the tail.
func (p *DrivePool) bestWaiterLocked(id streamID) bool {
	cand, ok := p.waiting[id]
	if !ok {
		cand = &waiter{id: id, arrived: p.arrival + 1}
	}
	perTenant := make(map[string]int, len(p.active))
	for a := range p.active {
		perTenant[a.tenant]++
	}
	cs := perTenant[cand.id.tenant]
	for _, w := range p.waiting {
		if w.id == id {
			continue
		}
		// w beats cand: a smaller share, or the same share and an
		// earlier arrival.
		if ws := perTenant[w.id.tenant]; ws < cs || (ws == cs && w.arrived < cand.arrived) {
			return false
		}
	}
	return true
}

// expireLocked drops waiters whose clients stopped polling.
func (p *DrivePool) expireLocked(now time.Duration) {
	for id, w := range p.waiting {
		if now-w.lastPoll > p.cfg.StaleAfter {
			delete(p.waiting, id)
			p.stats.Expired++
		}
	}
}

// Release returns a stream's drive (idempotent; releasing a waiter
// just dequeues it).
func (p *DrivePool) Release(tenant string, session uint64, stream int) {
	id := streamID{tenant, session, stream}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.active[id] {
		delete(p.active, id)
		p.stats.Released++
	}
	delete(p.waiting, id)
}

// Charge meters n durable bytes against the tenant's bucket and the
// pool's aggregate bucket, reporting whether the stream has window
// credit. Charges land even when over rate (the bytes are already on
// tape — the host asked after writing); the resulting debt withholds
// credit until refill repays it. n=0 is a pure poll (heartbeats).
func (p *DrivePool) Charge(tenant string, session uint64, stream int, n int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.cfg.Now()
	tb := p.tenants[tenant]
	if tb == nil {
		rate := p.cfg.DefaultRate
		burst := rate // one second of burst
		tb = &bucket{rate: rate, burst: burst, tokens: burst, last: now}
		p.tenants[tenant] = tb
	}
	tb.refill(now)
	p.agg.refill(now)
	if n > 0 {
		if tb.rate > 0 {
			tb.tokens -= int64(n)
		}
		if p.agg.rate > 0 {
			p.agg.tokens -= int64(n)
		}
	}
	if tb.ok() && p.agg.ok() {
		return true
	}
	p.stats.Throttled++
	return false
}
