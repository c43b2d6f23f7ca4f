package ndmp

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	recstream "repro/internal/stream"
	"repro/internal/transport"
)

// Sink is the durable record consumer a Host writes to — the contract
// both dump engines emit. A Sink that also implements io.Closer is
// closed when its stream is evicted from the registry (clean session
// close, explicit eviction, or host shutdown), which is what finalizes
// server-side stream files.
type Sink = recstream.Sink

// SinkFactory opens the durable sink for one stream of a session. The
// host calls it on the first Hello naming that stream; re-Hellos of
// a registered stream (reconnects) rebind without reopening.
type SinkFactory func(hello Hello) (Sink, error)

// Admission is a Gate's verdict on a new stream.
type Admission int

const (
	// AdmitGranted admits the stream onto a drive immediately.
	AdmitGranted Admission = iota
	// AdmitWait queues the stream: the host withholds the HelloAck and
	// the client's re-sent Hellos (its heartbeat-interval retries) poll
	// the queue until a slot frees or the client's DeadAfter expires —
	// admission waiting without a new wire message.
	AdmitWait
	// AdmitReject refuses the stream (queue full, tenant over quota):
	// the host answers AckErr, which is terminal for the client.
	AdmitReject
)

// Gate is the admission/rate-control hook a multi-tenant host
// consults — sched.DrivePool implements it. All methods must be safe
// for concurrent use; the host calls them with no locks of its own
// held that the Gate could observe.
//
// Admit is called on every Hello for an unregistered stream and must
// be idempotent per (tenant, session, stream): a waiting client
// re-Hellos every heartbeat interval, and each retry polls Admit
// again; two connections racing the same Hello must consume one
// grant, not two. A grant stays held until Release frees it — the
// host releases each admitted stream exactly once, at eviction (or
// when its sink fails to open). Charge is called with the byte size
// of every durably written record and with n=0 on heartbeats (a pure
// refill poll); returning false tells the host to withhold window
// credit — the ack keeps reporting the old mark — so the client's
// sliding window, not the wire format, enforces the tenant's byte
// rate.
type Gate interface {
	Admit(tenant string, session uint64, stream int) (Admission, string)
	Release(tenant string, session uint64, stream int)
	Charge(tenant string, session uint64, stream int, n int) bool
}

// HostStats counts protocol events on the tape-host side, aggregated
// across every session in the registry.
type HostStats struct {
	Streams    int   // sinks opened
	Records    int64 // records durably written
	Duplicates int   // replayed frames already on media
	Gaps       int   // sequence jumps (loss detected)
	BadFrames  int   // undecodable frames received
	Heartbeats int   // probes answered
	NextVols   int   // volume switches served
	Syncs      int   // MsgSyncs answered AckOK
	Sessions   int   // sessions closed cleanly
	Waits      int   // Hellos left unanswered by admission control
	Rejects    int   // Hellos refused by admission control
	Throttled  int   // acks withheld by the rate limiter
	Evictions  int   // streams evicted from the registry
}

// streamKey identifies one stream of one session in the registry.
type streamKey struct {
	session uint64
	stream  int
}

// stream is the per-(session, stream) server state: exactly what the
// pre-registry Host kept once, now one entry per client. The mutex
// serializes the data path (normally a single connection goroutine;
// after a reconnect race, possibly a zombie too); acked and bytes are
// atomics so metric collectors read them without taking it.
type stream struct {
	mu    sync.Mutex
	hello Hello
	sink  Sink
	acked atomic.Uint64 // cumulative: records 1..acked are durable
	bytes atomic.Int64  // payload bytes durably written
	// released is the high-water mark the host has granted window
	// credit for: acks report it instead of acked while the Gate is
	// throttling the tenant. released <= acked always; correctness
	// paths (gap, EOM, volume switch, sync) snap it back to acked.
	released uint64
	eom      bool // current volume full; awaiting MsgNextVol
}

func (st *stream) status() byte {
	if st.eom {
		return AckEOM
	}
	return AckOK
}

// StreamEnd describes one stream at the moment its session closed
// cleanly: the Hello that opened it, the sink the factory made for it
// (already closed) and the payload bytes durably written to it.
type StreamEnd struct {
	Hello Hello
	Sink  Sink
	Bytes int64
}

// Host is the tape-host side of the session layer: a registry of
// per-(session, stream) state, so N clients coexist on one host. Each
// connection gets its own Conn binding (NewConn) and routes frames to
// the stream its Hello named; a simulated link attaches one Conn's
// HandleFrame for its life.
type Host struct {
	// Gate, when set, is the drive-pool scheduler: every new stream
	// passes admission, every durable byte is charged against its
	// tenant's rate. When nil every stream is admitted and unthrottled.
	Gate Gate
	// OnSessionClose, when set, is called after a clean MsgClose
	// evicts a session's streams (sinks already closed), with the
	// session's streams in stream order. It runs on the connection's
	// goroutine before the CloseAck is sent, so by the time the client
	// sees the ack the callback's work (e.g. cataloging the received
	// dump) is done.
	OnSessionClose func(session uint64, streams []StreamEnd)

	mu      sync.Mutex
	factory SinkFactory
	streams map[streamKey]*stream
	stats   HostStats

	reg        *obs.Registry
	tenantSeen map[string]bool
	tenantDone map[string]int64 // bytes of evicted streams, by tenant
}

// NewHost creates a host that opens sinks through factory. Set the
// Gate before serving to tie the host into a drive-pool scheduler.
func NewHost(factory SinkFactory) *Host {
	return &Host{
		factory:    factory,
		streams:    make(map[streamKey]*stream),
		tenantSeen: make(map[string]bool),
		tenantDone: make(map[string]int64),
	}
}

// Stats returns a snapshot of the host's counters.
func (h *Host) Stats() HostStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats
}

// bump applies one stats mutation under the host lock. Callers may
// hold a stream's mutex (lock order: stream.mu -> h.mu).
func (h *Host) bump(f func(*HostStats)) {
	h.mu.Lock()
	f(&h.stats)
	h.mu.Unlock()
}

// ActiveStreams returns the number of registered streams.
func (h *Host) ActiveStreams() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.streams)
}

// TenantBytes returns the payload bytes durably written for tenant,
// summed over live and evicted streams.
func (h *Host) TenantBytes(tenant string) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.tenantBytesLocked(tenant)
}

func (h *Host) tenantBytesLocked(tenant string) int64 {
	total := h.tenantDone[tenant]
	for _, st := range h.streams {
		if st.hello.Tenant == tenant {
			total += st.bytes.Load()
		}
	}
	return total
}

// RegisterMetrics installs pull collectors for the host's protocol
// counters, plus per-tenant byte/stream gauges registered lazily as
// tenants appear. The closures lock the host, so collection is safe
// while the host is serving.
func (h *Host) RegisterMetrics(r *obs.Registry) {
	h.mu.Lock()
	h.reg = r
	for t := range h.tenantSeen {
		h.registerTenantLocked(t)
	}
	h.mu.Unlock()
	snap := func(read func(HostStats) float64) func() float64 {
		return func() float64 {
			h.mu.Lock()
			defer h.mu.Unlock()
			return read(h.stats)
		}
	}
	r.RegisterFunc("ndmp_host_streams_total", obs.KindCounter, nil, snap(func(s HostStats) float64 { return float64(s.Streams) }))
	r.RegisterFunc("ndmp_host_records_total", obs.KindCounter, nil, snap(func(s HostStats) float64 { return float64(s.Records) }))
	r.RegisterFunc("ndmp_host_duplicates_total", obs.KindCounter, nil, snap(func(s HostStats) float64 { return float64(s.Duplicates) }))
	r.RegisterFunc("ndmp_host_gaps_total", obs.KindCounter, nil, snap(func(s HostStats) float64 { return float64(s.Gaps) }))
	r.RegisterFunc("ndmp_host_bad_frames_total", obs.KindCounter, nil, snap(func(s HostStats) float64 { return float64(s.BadFrames) }))
	r.RegisterFunc("ndmp_host_heartbeats_total", obs.KindCounter, nil, snap(func(s HostStats) float64 { return float64(s.Heartbeats) }))
	r.RegisterFunc("ndmp_host_next_vols_total", obs.KindCounter, nil, snap(func(s HostStats) float64 { return float64(s.NextVols) }))
	r.RegisterFunc("ndmp_host_syncs_total", obs.KindCounter, nil, snap(func(s HostStats) float64 { return float64(s.Syncs) }))
	r.RegisterFunc("ndmp_host_sessions_total", obs.KindCounter, nil, snap(func(s HostStats) float64 { return float64(s.Sessions) }))
	r.RegisterFunc("ndmp_host_waits_total", obs.KindCounter, nil, snap(func(s HostStats) float64 { return float64(s.Waits) }))
	r.RegisterFunc("ndmp_host_rejects_total", obs.KindCounter, nil, snap(func(s HostStats) float64 { return float64(s.Rejects) }))
	r.RegisterFunc("ndmp_host_throttled_total", obs.KindCounter, nil, snap(func(s HostStats) float64 { return float64(s.Throttled) }))
	r.RegisterFunc("ndmp_host_active_streams", obs.KindGauge, nil, func() float64 {
		h.mu.Lock()
		defer h.mu.Unlock()
		return float64(len(h.streams))
	})
}

// registerTenantLocked installs the per-tenant collectors once a
// tenant first appears. Callers hold h.mu and have set h.reg.
func (h *Host) registerTenantLocked(tenant string) {
	if h.reg == nil {
		return
	}
	l := obs.Labels{"tenant": tenant}
	t := tenant
	h.reg.RegisterFunc("ndmp_host_tenant_acked_bytes", obs.KindCounter, l, func() float64 {
		h.mu.Lock()
		defer h.mu.Unlock()
		return float64(h.tenantBytesLocked(t))
	})
	h.reg.RegisterFunc("ndmp_host_tenant_streams", obs.KindGauge, l, func() float64 {
		h.mu.Lock()
		defer h.mu.Unlock()
		n := 0
		for _, st := range h.streams {
			if st.hello.Tenant == t {
				n++
			}
		}
		return float64(n)
	})
}

// Conn is one connection's binding into the host registry: frames
// route to the stream the connection's Hello named. Each accepted
// connection gets its own Conn; a Conn is used by one goroutine.
//
// A Conn answers from buffers it keeps for the connection's life: the
// frames Handle, HandleFrame and BadFrame return are valid until the
// next call on the same Conn. Both senders — a Link's pump and
// ServeConn — put them on the wire before that.
type Conn struct {
	h     *Host
	cur   *stream
	last  Hello
	bound bool

	ackBuf   []byte    // the payload of the last answer
	frameBuf []byte    // the last answer, encoded
	out      [1][]byte // what Handle returns: frameBuf
}

// NewConn returns a fresh connection binding.
func (h *Host) NewConn() *Conn { return &Conn{h: h} }

// Bound returns the Hello this connection most recently bound to; it
// stays readable after a clean close retires the stream.
func (c *Conn) Bound() (Hello, bool) { return c.last, c.bound }

// bind points the connection at a stream.
func (c *Conn) bind(st *stream) {
	c.cur = st
	c.last = st.hello
	c.bound = true
}

// HandleFrame consumes one raw frame and returns the frames to send
// back, valid until the next call on c. It implements
// transport.Handler, which is how a simulated tape host stays on the
// client's virtual clock.
func (c *Conn) HandleFrame(raw []byte) [][]byte {
	f, err := transport.Decode(raw)
	if err != nil {
		return c.BadFrame()
	}
	return c.Handle(f)
}

// BadFrame records an undecodable frame and answers with the bound
// stream's high-water mark so the client replays without waiting for
// a window-full stall. The answer is valid until the next call on c.
func (c *Conn) BadFrame() [][]byte {
	c.h.bump(func(s *HostStats) { s.BadFrames++ })
	var mark uint64
	if c.cur != nil {
		mark = c.cur.acked.Load()
	}
	return c.respond(MsgAck, ack{status: AckGap, acked: mark})
}

// Handle consumes one decoded frame — the decode-once entry point
// Serve uses so every frame is parsed exactly one time. A data frame's
// payload goes to the sink, which copies what it keeps; the answer is
// valid until the next call on c.
func (c *Conn) Handle(f transport.Frame) [][]byte {
	switch f.Type {
	case MsgHello:
		return c.handleHello(f)
	case MsgData:
		return c.handleData(f)
	case MsgHeartbeat:
		return c.handleHeartbeat()
	case MsgNextVol:
		return c.handleNextVol()
	case MsgSync:
		return c.handleSync()
	case MsgClose:
		return c.handleClose()
	default:
		// Unknown type: ignore (forward compatibility); say nothing.
		return nil
	}
}

// respond encodes one ack-bearing response frame into the
// connection's buffers.
func (c *Conn) respond(typ byte, a ack) [][]byte {
	c.ackBuf = appendAck(c.ackBuf[:0], a)
	c.frameBuf = transport.AppendFrame(c.frameBuf[:0], &transport.Frame{
		Type:    typ,
		Seq:     a.acked,
		Payload: c.ackBuf,
	})
	c.out[0] = c.frameBuf
	return c.out[:]
}

func (c *Conn) handleHello(f transport.Frame) [][]byte {
	h := c.h
	hello, err := decodeHello(f.Payload)
	if err != nil {
		return c.BadFrame()
	}
	if hello.Version != Version {
		return c.respond(MsgHelloAck, ack{status: AckErr,
			msg: fmt.Sprintf("version %d not supported (host speaks %d)", hello.Version, Version)})
	}
	if hello.Kind != KindLogical && hello.Kind != KindImage {
		return c.respond(MsgHelloAck, ack{status: AckErr, msg: fmt.Sprintf("unknown stream kind %d", hello.Kind)})
	}
	key := streamKey{hello.Session, hello.Stream}
	h.mu.Lock()
	st, ok := h.streams[key]
	h.mu.Unlock()
	if ok {
		// A re-Hello of a registered stream: a reconnect (or a second
		// connection after a half-dead one). Rebind; the sink, marks
		// and EOM latch carry over — that is what makes reconnect
		// resume instead of restart.
		c.bind(st)
		st.mu.Lock()
		defer st.mu.Unlock()
		return c.respond(MsgHelloAck, ack{status: st.status(), acked: st.acked.Load()})
	}
	// This host holds no media for the stream, so it answers mark 0. A
	// client failing over mid-stream (from another host, or from this
	// host's previous life) has seen a higher mark acknowledged and says
	// so in the Hello's Seq: it can only end the stream and resume from
	// its own checkpoint on a fresh one (StaleStreamError), so it gets
	// no admission and no media. A fresh stream gets both.
	if f.Seq > 0 {
		return c.respond(MsgHelloAck, ack{status: AckOK})
	}
	if h.Gate != nil {
		adm, msg := h.Gate.Admit(hello.Tenant, hello.Session, hello.Stream)
		switch adm {
		case AdmitWait:
			// Withhold the HelloAck: the client's request loop re-sends
			// the Hello every heartbeat interval, polling the queue.
			h.bump(func(s *HostStats) { s.Waits++ })
			return nil
		case AdmitReject:
			h.bump(func(s *HostStats) { s.Rejects++ })
			if msg == "" {
				msg = "admission rejected"
			}
			return c.respond(MsgHelloAck, ack{status: AckErr, msg: msg})
		}
	}
	h.mu.Lock()
	// Re-check under the lock: another connection's Hello for the same
	// key may have registered the stream while we consulted the Gate.
	if st, ok = h.streams[key]; ok {
		// Admit is idempotent per key, so the racing Hello consumed no
		// extra grant: just rebind to the stream the winner registered.
		h.mu.Unlock()
		c.bind(st)
		st.mu.Lock()
		defer st.mu.Unlock()
		return c.respond(MsgHelloAck, ack{status: st.status(), acked: st.acked.Load()})
	}
	sink, err := h.factory(hello)
	if err != nil {
		h.mu.Unlock()
		if h.Gate != nil {
			h.Gate.Release(hello.Tenant, hello.Session, hello.Stream)
		}
		return c.respond(MsgHelloAck, ack{status: AckErr, msg: err.Error()})
	}
	st = &stream{hello: hello, sink: sink}
	h.streams[key] = st
	h.stats.Streams++
	if !h.tenantSeen[hello.Tenant] {
		h.tenantSeen[hello.Tenant] = true
		h.registerTenantLocked(hello.Tenant)
	}
	h.mu.Unlock()
	c.bind(st)
	return c.respond(MsgHelloAck, ack{status: AckOK, acked: 0})
}

func (c *Conn) handleHeartbeat() [][]byte {
	c.h.bump(func(s *HostStats) { s.Heartbeats++ })
	st := c.cur
	if st == nil {
		return c.respond(MsgAck, ack{status: AckOK})
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	// A heartbeat is the rate limiter's refill poll: if the tenant's
	// bucket has recovered, release the withheld credit.
	if st.released < st.acked.Load() && c.charge(st, 0) {
		st.released = st.acked.Load()
	}
	mark := st.released
	if st.eom {
		mark = st.acked.Load() // EOM recovery needs the true mark
	}
	return c.respond(MsgAck, ack{status: st.status(), acked: mark})
}

// charge asks the Gate whether the tenant may be granted credit for n
// more durable bytes. Callers hold st.mu.
func (c *Conn) charge(st *stream, n int) bool {
	g := c.h.Gate
	if g == nil {
		return true
	}
	return g.Charge(st.hello.Tenant, st.hello.Session, st.hello.Stream, n)
}

func (c *Conn) handleData(f transport.Frame) [][]byte {
	st := c.cur
	if st == nil {
		return c.respond(MsgAck, ack{status: AckErr, msg: "data before hello"})
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	acked := st.acked.Load()
	switch {
	case f.Seq <= acked:
		// Idempotent replay: already durable, re-ack so the client
		// can slide its window — but report only the released mark, or
		// a throttled client's replays would defeat the limiter.
		c.h.bump(func(s *HostStats) { s.Duplicates++ })
		mark := st.released
		if st.eom {
			mark = acked
		}
		return c.respond(MsgAck, ack{status: st.status(), acked: mark})
	case f.Seq > acked+1:
		// Loss: nack with the high-water mark; client replays. A real
		// gap is a correctness recovery, so it reports (and releases)
		// the true mark.
		c.h.bump(func(s *HostStats) { s.Gaps++ })
		st.released = acked
		return c.respond(MsgAck, ack{status: AckGap, acked: acked})
	}
	if st.eom {
		// Volume still full; remind the client.
		return c.respond(MsgAck, ack{status: AckEOM, acked: acked})
	}
	err := st.sink.WriteRecord(f.Payload)
	switch {
	case err == nil:
		st.acked.Store(f.Seq)
		st.bytes.Add(int64(len(f.Payload)))
		c.h.bump(func(s *HostStats) { s.Records++ })
		if c.charge(st, len(f.Payload)) {
			st.released = f.Seq
		}
		if f.Flags&FlagAckNow != 0 {
			if st.released < f.Seq {
				// Over the tenant's byte rate: withhold the ack. The
				// client stalls on its full window and its heartbeat
				// probes poll for the released mark — backpressure
				// through the existing window flags, no wire change.
				c.h.bump(func(s *HostStats) { s.Throttled++ })
				return nil
			}
			return c.respond(MsgAck, ack{status: AckOK, acked: st.released})
		}
		return nil
	case errors.Is(err, recstream.ErrEndOfMedia):
		// The record did not fit. It is NOT durable: latch EOM and
		// report the high-water mark so the client re-sends it after
		// the volume switch.
		st.eom = true
		st.released = acked
		return c.respond(MsgAck, ack{status: AckEOM, acked: acked})
	default:
		return c.respond(MsgAck, ack{status: AckErr, acked: acked, msg: err.Error()})
	}
}

func (c *Conn) handleNextVol() [][]byte {
	st := c.cur
	if st == nil {
		return c.respond(MsgVolAck, ack{status: AckErr, msg: "next-vol before hello"})
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.eom {
		// Duplicate request (our VolAck was lost): the switch already
		// happened; confirm idempotently.
		return c.respond(MsgVolAck, ack{status: AckOK, acked: st.acked.Load()})
	}
	if err := st.sink.NextVolume(); err != nil {
		return c.respond(MsgVolAck, ack{status: AckErr, acked: st.acked.Load(), msg: err.Error()})
	}
	st.eom = false
	st.released = st.acked.Load()
	c.h.bump(func(s *HostStats) { s.NextVols++ })
	return c.respond(MsgVolAck, ack{status: AckOK, acked: st.acked.Load()})
}

// handleSync confirms a stream checkpoint: the answer's mark says
// records 1..acked are on this host's media.
func (c *Conn) handleSync() [][]byte {
	st := c.cur
	if st == nil {
		return c.respond(MsgSyncAck, ack{status: AckErr, msg: "sync before hello"})
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	acked := st.acked.Load()
	st.released = acked // a checkpoint drain must not be throttled
	status := st.status()
	if status == AckOK {
		c.h.bump(func(s *HostStats) { s.Syncs++ })
	}
	return c.respond(MsgSyncAck, ack{status: status, acked: acked})
}

// handleClose ends the bound stream's whole session: every stream of
// the session (checkpoint resumes add streams) is evicted, its sink
// finalized, its drive slot released, and the OnSessionClose hook
// runs — all before the CloseAck is answered, so a client that saw
// the ack knows the server has fully retired the session.
func (c *Conn) handleClose() [][]byte {
	st := c.cur
	if st == nil {
		return c.respond(MsgCloseAck, ack{status: AckOK})
	}
	session := st.hello.Session
	a := ack{status: AckOK, acked: st.acked.Load()}
	if st.eom {
		a.status = AckEOM
	}
	evicted := c.h.evict(func(k streamKey) bool { return k.session == session })
	ends := make([]StreamEnd, 0, len(evicted))
	for _, st := range evicted {
		ends = append(ends, StreamEnd{Hello: st.hello, Sink: st.sink, Bytes: st.bytes.Load()})
	}
	c.h.bump(func(s *HostStats) { s.Sessions++ })
	if c.h.OnSessionClose != nil {
		c.h.OnSessionClose(session, ends)
	}
	c.cur = nil // the session is retired: a re-sent MsgClose closes nothing again
	return c.respond(MsgCloseAck, a)
}

// evict removes every registered stream whose key match selects, then
// finalizes each — closes its sink (eviction is the only way a
// registered sink leaves the registry, and it always finalizes) and
// releases its drive grant — and returns them in stream order.
func (h *Host) evict(match func(streamKey) bool) []*stream {
	h.mu.Lock()
	var evicted []*stream
	for k, st := range h.streams {
		if match(k) {
			evicted = append(evicted, st)
			delete(h.streams, k)
			h.stats.Evictions++
			h.tenantDone[st.hello.Tenant] += st.bytes.Load()
		}
	}
	h.mu.Unlock()
	sort.Slice(evicted, func(i, j int) bool { return evicted[i].hello.Stream < evicted[j].hello.Stream })
	for _, st := range evicted {
		st.mu.Lock()
		if cl, ok := st.sink.(io.Closer); ok {
			cl.Close()
		}
		st.mu.Unlock()
		if h.Gate != nil {
			h.Gate.Release(st.hello.Tenant, st.hello.Session, st.hello.Stream)
		}
	}
	return evicted
}

// Evict removes one stream from the registry, closing its sink and
// releasing its grant. It is the operator path for abandoning a
// stream whose client will never return; a client that does come back
// is answered like a failed-over one: mark 0, and no media.
func (h *Host) Evict(session uint64, stream int) bool {
	key := streamKey{session, stream}
	return len(h.evict(func(k streamKey) bool { return k == key })) > 0
}

// Close evicts every registered stream, finalizing all sinks — host
// shutdown.
func (h *Host) Close() error {
	h.evict(func(streamKey) bool { return true })
	return nil
}

// Serve pumps frames from a real connection through the host until
// the peer closes or idleTimeout passes with no traffic. It returns
// nil on a clean MsgClose, io.EOF-ish errors from the conn otherwise.
// Each call gets its own registry binding, so one listener can run
// many Serve goroutines concurrently — one per accepted connection.
// Frames are decoded exactly once. Used by backupctl serve; simulated
// links attach a Conn's HandleFrame directly instead.
func Serve(conn transport.Conn, host *Host, idleTimeout time.Duration) error {
	return ServeConn(conn, host.NewConn(), idleTimeout)
}

// ServeConn is Serve with a caller-built registry binding, so the
// caller can inspect hc.Bound() afterwards (e.g. to label a span with
// the tenant and session the connection turned out to carry). Each
// frame's answer is on the wire before the next frame is received, so
// the received frame and hc's answer both live in reused buffers.
func ServeConn(conn transport.Conn, hc *Conn, idleTimeout time.Duration) error {
	if idleTimeout <= 0 {
		idleTimeout = 30 * time.Second
	}
	for {
		raw, err := conn.Recv(idleTimeout)
		if err != nil {
			if errors.Is(err, transport.ErrTimeout) {
				return fmt.Errorf("ndmp: serve: idle for %v: %w", idleTimeout, ErrPeerDead)
			}
			return err
		}
		var resps [][]byte
		var closing bool
		if f, derr := transport.Decode(raw); derr != nil {
			resps = hc.BadFrame()
		} else {
			closing = f.Type == MsgClose
			resps = hc.Handle(f)
		}
		for _, resp := range resps {
			if err := conn.Send(resp); err != nil {
				return err
			}
		}
		if closing {
			return nil
		}
	}
}
