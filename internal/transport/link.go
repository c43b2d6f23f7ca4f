package transport

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"repro/internal/sim"
)

// Errors surfaced by connections.
var (
	// ErrTimeout is returned by Recv when no frame arrives within the
	// deadline. On a simulated link the wait is charged to the virtual
	// clock; on a net.Conn it is a wall-clock read deadline.
	ErrTimeout = errors.New("transport: receive timeout")
	// ErrLinkDown is returned by Send once the link is cut (a hard
	// two-way partition): the peer is unreachable and the connection
	// must be re-dialed.
	ErrLinkDown = errors.New("transport: link down")
)

// Conn is what the session layer in internal/ndmp runs over: a frame
// pipe with a receive deadline. Both the simulated Endpoint and the
// net.Conn adapter implement it.
type Conn interface {
	// Send transmits one encoded frame. A nil error does NOT mean the
	// peer received it — frames on a faulty link vanish silently. Send
	// does not keep raw: the caller may reuse it once Send returns.
	Send(raw []byte) error
	// Recv returns the next frame, or ErrTimeout after the deadline.
	// The frame is valid until the next Recv on the same Conn, which
	// may receive into the same buffer.
	Recv(timeout time.Duration) ([]byte, error)
	// Close releases the connection.
	Close() error
}

// Params describes the simulated link's performance.
type Params struct {
	// Latency is the fixed per-frame propagation delay.
	Latency time.Duration
	// Rate is the link throughput in bytes/second, per direction
	// (0 = infinite): back-to-back frames queue for the wire.
	Rate float64
}

// DefaultParams models a late-90s backup LAN: 100BASE-T switch hop.
func DefaultParams() Params {
	return Params{Latency: 200 * time.Microsecond, Rate: 12 << 20}
}

// FaultConfig arms seeded network faults on a Link, mirroring
// storage.FaultProfile and tape.FaultConfig: probabilistic faults are
// drawn from a private seeded generator, deterministic schedules fire
// at exact frame counts, and all injected latency is charged to the
// simulated clock.
type FaultConfig struct {
	// Seed initialises the link's private rand.Rand.
	Seed int64
	// Drop is the per-frame probability of silent loss.
	Drop float64
	// Duplicate is the per-frame probability the frame arrives twice.
	Duplicate float64
	// Corrupt is the per-frame probability of in-flight bit damage
	// (the receiver sees a CRC-invalid frame).
	Corrupt float64
	// Reorder is the per-frame probability the frame overtakes the
	// frame queued immediately before it.
	Reorder float64
	// Stall is the per-frame probability of an extra StallFor delay —
	// a congested switch, a retransmitting NIC.
	Stall    float64
	StallFor time.Duration
	// CutAfterFrames lists cumulative frame counts (both directions)
	// at which the link hard-partitions: the triggering frame is lost
	// in flight and every later Send fails with ErrLinkDown until
	// Heal. Sorted ascending; each entry fires once.
	CutAfterFrames []int
	// CorruptAtFrames deterministically corrupts exactly these frames
	// (cumulative count), for scenarios that must see >=1 bad frame.
	CorruptAtFrames []int
	// MaxFaults caps the probabilistic injections; 0 = no cap.
	// Deterministic schedules are exempt.
	MaxFaults int
}

// FaultStats counts injected network faults.
type FaultStats struct {
	Dropped    int
	Duplicated int
	Corrupted  int
	Reordered  int
	Stalled    int
	Cuts       int // hard partitions (scheduled or manual)
}

func (s FaultStats) probTotal() int {
	return s.Dropped + s.Duplicated + s.Corrupted + s.Reordered + s.Stalled
}

// delivery is a frame in flight.
type delivery struct {
	raw     []byte
	readyAt sim.Time
}

// Handler consumes frames at a passive endpoint (the server side) and
// returns encoded response frames to send back. The link sends (and
// so copies) the responses before it calls the handler again, so a
// handler may answer from buffers it reuses.
type Handler func(raw []byte) [][]byte

// Link is a deterministic simulated duplex connection. Endpoint A is
// conventionally the client (data mover), endpoint B the server (tape
// host); B usually has a Handler attached and is driven by A's sends
// and receive waits, which keeps the whole exchange on one virtual
// clock and fully reproducible.
type Link struct {
	mu     sync.Mutex
	params Params
	ends   [2]*Endpoint
	queues [2][]delivery // queues[i] = frames destined for ends[i]
	// wireFree[i] is when the wire out of ends[i] finishes serializing
	// the last frame sent on it.
	wireFree [2]sim.Time

	fc      *FaultConfig
	rng     *rand.Rand
	down    bool
	severed bool
	oneWay  [2]bool // oneWay[i]: frames FROM ends[i] silently vanish
	sent    int     // frames offered for transmission, drives schedules
	cutIdx  int
	corIdx  int
	stats   FaultStats
}

// NewLink creates a healthy link.
func NewLink(p Params) *Link {
	l := &Link{params: p}
	l.ends[0] = &Endpoint{link: l, idx: 0}
	l.ends[1] = &Endpoint{link: l, idx: 1}
	return l
}

// A returns the client-side endpoint, B the server side.
func (l *Link) A() *Endpoint { return l.ends[0] }
func (l *Link) B() *Endpoint { return l.ends[1] }

// Arm enables fault injection according to fc.
func (l *Link) Arm(fc FaultConfig) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fc = &fc
	l.rng = rand.New(rand.NewSource(fc.Seed))
}

// Stats returns the faults injected so far.
func (l *Link) Stats() FaultStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Down reports whether the link is hard-partitioned.
func (l *Link) Down() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.down
}

// Cut hard-partitions the link in both directions, dropping everything
// in flight. Sends fail with ErrLinkDown until Heal.
func (l *Link) Cut() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cutLocked()
}

func (l *Link) cutLocked() {
	l.down = true
	l.stats.Cuts++
	l.queues[0] = nil
	l.queues[1] = nil
}

// Sever permanently cuts the link: the host on the far end is gone
// (power pulled, not a cable glitch) and Heal does not restore it.
// Redial helpers that heal transient cuts before dialing use this to
// tell "retry the same host" apart from "fail over to the standby".
func (l *Link) Sever() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.severed = true
	l.cutLocked()
}

// Severed reports whether the link was permanently cut.
func (l *Link) Severed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.severed
}

// PartitionOneWay makes the direction out of the given endpoint a
// black hole: its sends succeed but never arrive — the failure mode
// that heartbeat dead-peer detection exists for. fromA selects the
// A->B direction, otherwise B->A.
func (l *Link) PartitionOneWay(fromA bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if fromA {
		l.oneWay[0] = true
	} else {
		l.oneWay[1] = true
	}
}

// Heal restores a cut or partitioned link. In-flight frames from
// before the outage are gone: a healed link is a fresh connection over
// the same wire, which is why sessions re-handshake after dialing.
func (l *Link) Heal() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.severed {
		return // a dead host does not come back with the cable
	}
	l.down = false
	l.oneWay[0], l.oneWay[1] = false, false
	l.queues[0] = nil
	l.queues[1] = nil
}

// sendLocked applies faults to one frame from ends[from] and enqueues
// surviving copies for the peer. now is the sender's view of virtual
// time. Callers hold l.mu.
func (l *Link) sendLocked(from int, now sim.Time, raw []byte) error {
	if l.down {
		return ErrLinkDown
	}
	l.sent++
	fc := l.fc
	if fc != nil && l.cutIdx < len(fc.CutAfterFrames) && l.sent >= fc.CutAfterFrames[l.cutIdx] {
		// The cable is pulled with this frame in flight: the frame is
		// lost silently, later sends fail fast.
		l.cutIdx++
		l.cutLocked()
		return nil
	}
	if l.oneWay[from] {
		return nil // black hole: the sender cannot tell
	}
	// Delivery times exist only when a simulated clock is attached;
	// a fully untimed link delivers instantly. Each direction's wire
	// carries one frame at a time: a frame starts serializing once the
	// one before it has left, so Rate bounds the throughput of a whole
	// window, not just each frame's own transfer.
	timed := l.ends[0].proc != nil || l.ends[1].proc != nil
	var readyAt sim.Time
	if timed {
		l.wireFree[from] = max(now, l.wireFree[from]) + sim.TimeFor(len(raw), l.params.Rate)
		readyAt = l.wireFree[from] + l.params.Latency
	}
	// The frame in flight is the link's own copy: the sender reuses raw.
	cp := make([]byte, len(raw))
	copy(cp, raw)
	copies := 1
	if fc != nil {
		forceCorrupt := false
		if l.corIdx < len(fc.CorruptAtFrames) && l.sent >= fc.CorruptAtFrames[l.corIdx] {
			l.corIdx++
			forceCorrupt = true
		}
		capped := fc.MaxFaults > 0 && l.stats.probTotal() >= fc.MaxFaults
		if forceCorrupt || (!capped && fc.Corrupt > 0 && l.rng.Float64() < fc.Corrupt) {
			cp[l.rng.Intn(len(cp))] ^= 0xFF
			l.stats.Corrupted++
			capped = fc.MaxFaults > 0 && l.stats.probTotal() >= fc.MaxFaults
		}
		if !capped && fc.Drop > 0 && l.rng.Float64() < fc.Drop {
			l.stats.Dropped++
			return nil
		}
		if !capped && fc.Duplicate > 0 && l.rng.Float64() < fc.Duplicate {
			l.stats.Duplicated++
			copies = 2
		}
		if !capped && fc.Stall > 0 && l.rng.Float64() < fc.Stall {
			l.stats.Stalled++
			if timed {
				readyAt += fc.StallFor
			}
		}
	}
	to := 1 - from
	for c := 0; c < copies; c++ {
		d := delivery{raw: cp, readyAt: readyAt}
		q := l.queues[to]
		if fc != nil && len(q) > 0 && fc.Reorder > 0 && l.rng.Float64() < fc.Reorder &&
			(fc.MaxFaults == 0 || l.stats.probTotal() < fc.MaxFaults) {
			// Overtake the previously queued frame.
			l.stats.Reordered++
			q = append(q, delivery{})
			copy(q[len(q)-1:], q[len(q)-2:])
			q[len(q)-2] = d
		} else {
			q = append(q, d)
		}
		l.queues[to] = q
	}
	return nil
}

// pumpLocked delivers every due frame addressed to a handler-attached
// endpoint and enqueues the handler's responses (which are themselves
// subject to faults). Callers hold l.mu.
func (l *Link) pumpLocked(now sim.Time) {
	for i := 0; i < 2; i++ {
		h := l.ends[i].handler
		if h == nil {
			continue
		}
		for len(l.queues[i]) > 0 && l.queues[i][0].readyAt <= now {
			d := l.queues[i][0]
			l.queues[i] = l.queues[i][1:]
			for _, resp := range h(d.raw) {
				// Response sends reuse the pump's clock; errors (a cut
				// triggered mid-exchange) just lose the response.
				_ = l.sendLocked(i, now, resp)
			}
		}
	}
}

// nextWakeLocked returns the earliest readyAt among frames that can
// actually be delivered next — the HEADS of the queue for endpoint idx
// and of every handler endpoint's queue — and whether one exists.
// Callers hold l.mu.
//
// Only heads count: delivery is strictly FIFO, so a small frame queued
// behind a large one (whose per-byte serialization gives the head a
// later readyAt) cannot overtake it. Waking on the minimum over the
// whole queue scheduled the waiter for an instant at which pumpLocked
// could deliver nothing, and the simulation spun at a frozen virtual
// time.
func (l *Link) nextWakeLocked(idx int) (sim.Time, bool) {
	var best sim.Time
	found := false
	consider := func(t sim.Time) {
		if !found || t < best {
			best, found = t, true
		}
	}
	if q := l.queues[idx]; len(q) > 0 {
		consider(q[0].readyAt)
	}
	for i := 0; i < 2; i++ {
		if l.ends[i].handler != nil {
			if q := l.queues[i]; len(q) > 0 {
				consider(q[0].readyAt)
			}
		}
	}
	return best, found
}

// Endpoint is one side of a Link. An active side Binds a sim process
// (or runs untimed) and uses Send/Recv; a passive side Attaches a
// Handler and is driven by the peer.
type Endpoint struct {
	link    *Link
	idx     int
	proc    *sim.Proc
	handler Handler
}

// Bind attaches the simulated process whose clock this endpoint's
// waits are charged to. A nil proc (the default) runs untimed:
// receive deadlines expire immediately when nothing is deliverable.
func (e *Endpoint) Bind(p *sim.Proc) { e.proc = p }

// Attach registers h as this endpoint's frame consumer. Attached
// endpoints must not call Recv.
func (e *Endpoint) Attach(h Handler) {
	e.link.mu.Lock()
	defer e.link.mu.Unlock()
	e.handler = h
}

func (e *Endpoint) now() sim.Time {
	if e.proc != nil {
		return e.proc.Now()
	}
	return 0
}

// Send implements Conn.
func (e *Endpoint) Send(raw []byte) error {
	l := e.link
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.sendLocked(e.idx, e.now(), raw); err != nil {
		return err
	}
	l.pumpLocked(e.now())
	return nil
}

// Recv implements Conn: it returns the next deliverable frame,
// driving any attached peer handler while it waits. The wait is
// charged to the bound process's virtual clock; an unbound endpoint
// polls and times out immediately when nothing is ready.
func (e *Endpoint) Recv(timeout time.Duration) ([]byte, error) {
	l := e.link
	l.mu.Lock()
	deadline := e.now() + timeout
	for {
		now := e.now()
		l.pumpLocked(now)
		if q := l.queues[e.idx]; len(q) > 0 && (e.proc == nil || q[0].readyAt <= now) {
			raw := q[0].raw
			l.queues[e.idx] = q[1:]
			l.mu.Unlock()
			return raw, nil
		}
		if e.proc == nil {
			l.mu.Unlock()
			return nil, ErrTimeout
		}
		next, ok := l.nextWakeLocked(e.idx)
		if !ok || next > deadline {
			l.mu.Unlock()
			e.proc.WaitUntil(deadline)
			return nil, ErrTimeout
		}
		if next < now {
			next = now
		}
		l.mu.Unlock()
		e.proc.WaitUntil(next)
		l.mu.Lock()
	}
}

// Close implements Conn. The link itself persists (it is the wire, not
// the connection); sessions re-dial over it after faults.
func (e *Endpoint) Close() error { return nil }
