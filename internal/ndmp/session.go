package ndmp

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/storage"
	recstream "repro/internal/stream"
	"repro/internal/transport"
)

// Dialer opens a fresh connection to the tape host. On a simulated
// link it returns the same endpoint (the wire persists, the
// conversation restarts); over TCP it dials anew.
type Dialer func() (transport.Conn, error)

// Config tunes a Session. Zero values take the documented defaults.
type Config struct {
	// Kind labels the stream (KindLogical or KindImage).
	Kind byte
	// Session is a client-chosen id, constant across reconnects.
	Session uint64
	// Stream is the volume-sequence index within the session.
	Stream int
	// FSID names the dumped filesystem in the Hello, so the tape host
	// can catalog the pushed stream.
	FSID string
	// Tenant names the client's namespace on a multi-tenant tape
	// host: catalogs, stream files and scheduler shares are kept per
	// tenant. Empty means the host's default tenant.
	Tenant string
	// Level is the incremental level carried in the Hello (-1 for
	// image streams).
	Level int32
	// Window bounds unacknowledged records in flight (default 16).
	// WriteRecord blocks — charging the simulated clock — once the
	// window is full: this is the backpressure that keeps a fast
	// dump from burying a slow tape host.
	Window int
	// HeartbeatEvery is the silence interval after which the client
	// probes the peer (default 250ms).
	HeartbeatEvery time.Duration
	// DeadAfter is the total silence after which the peer is declared
	// dead with ErrPeerDead (default 2s). Measured on the same clock
	// the connection runs on — virtual for simulated links.
	DeadAfter time.Duration
	// Redial bounds reconnect attempts after a recoverable connection
	// failure, with exponential backoff charged to the simulated
	// clock. The zero value takes DefaultRedialPolicy; a negative
	// MaxRetries disables reconnecting entirely.
	Redial storage.RetryPolicy
	// Ctx, when set, is polled between waits so cancellation
	// interrupts retry and reconnect loops promptly.
	Ctx context.Context
	// Proc, when set, charges redial backoff to the virtual clock.
	// Falls back to the proc carried in Ctx.
	Proc *sim.Proc
}

// DefaultRedialPolicy allows six reconnect attempts with 10ms
// exponential backoff — generous next to the sub-second partitions
// the chaos scenarios inject, small next to a dump's runtime.
func DefaultRedialPolicy() storage.RetryPolicy {
	return storage.RetryPolicy{MaxRetries: 6, Initial: 10 * time.Millisecond, Multiplier: 2}
}

// SessionStats counts client-side protocol events.
type SessionStats struct {
	Records        int64 // records accepted into the stream
	Replayed       int   // record retransmissions (gap, EOM or reconnect)
	Reconnects     int   // successful re-dials
	HeartbeatsSent int
	Timeouts       int // receive deadlines that expired
	BadFrames      int // undecodable frames received
	FramesSent     int // frames put on the wire (data, handshake, probes)
	WindowStalls   int // WriteRecord calls that blocked on a full window
}

// pending is one unacknowledged record in the send window.
type pending struct {
	seq  uint64
	data []byte
}

// Session is the data-mover side of a remote backup stream. It
// implements the engines' sink contract (WriteRecord/NextVolume), so
// a logical dump and a physical image dump thread through it
// unchanged; Close drains the window and must succeed before the
// dump may be reported durable.
//
// Sequence numbers start at 1; acked is cumulative. The window holds
// every record the host has not yet acknowledged, which makes replay
// after a gap, an end-of-media retry, or a reconnect the same
// operation: retransmit window entries above the high-water mark.
//
// The window keeps its own copy of each record, in a buffer taken back
// from a record the host has acknowledged, and every data frame is
// encoded into one send buffer: after the window first fills, a record
// costs the session no allocation.
type Session struct {
	cfg  Config
	dial Dialer
	conn transport.Conn

	window      []pending
	free        [][]byte // buffers of acknowledged records, for the next ones
	sendBuf     []byte   // the last data frame or heartbeat sent
	acked       uint64   // host's durable high-water mark
	synced      uint64   // acked at the last confirmed checkpoint
	nextSeq     uint64   // next sequence to assign
	sentThrough uint64   // highest seq transmitted on the current conn
	gapReplay   uint64   // first seq of the gap replay on this conn (0: none)
	maxSent     uint64   // highest seq ever transmitted (replay stats)
	eom         bool     // host reported end of media
	silence     time.Duration
	closed      bool
	stats       SessionStats
}

// Dial opens a session: connect, handshake, learn the host's durable
// high-water mark. Recoverable failures are retried per cfg.Redial.
func Dial(dial Dialer, cfg Config) (*Session, error) {
	if cfg.Session == 0 {
		// Id 0 is reserved as "unset": two clients defaulting to it
		// would silently merge their streams in the host's catalog.
		return nil, errors.New("ndmp: session id 0 is reserved; pick a random nonzero id")
	}
	if cfg.Window <= 0 {
		cfg.Window = 16
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 250 * time.Millisecond
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 2 * time.Second
	}
	if cfg.Redial.MaxRetries == 0 && cfg.Redial.Initial == 0 {
		cfg.Redial = DefaultRedialPolicy()
	}
	s := &Session{cfg: cfg, dial: dial, nextSeq: 1,
		window: make([]pending, 0, cfg.Window), free: make([][]byte, 0, cfg.Window)}
	if err := s.connect(); err != nil {
		if isTerminal(err) {
			return nil, err
		}
		if err = s.reconnect(err); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Stats returns a snapshot of the session's counters.
func (s *Session) Stats() SessionStats { return s.stats }

// RegisterMetrics installs pull collectors for the session's protocol
// counters, labeled by session id. A Session is single-goroutine;
// collect from the same goroutine or after the session closes.
func (s *Session) RegisterMetrics(r *obs.Registry) {
	l := obs.Labels{"session": fmt.Sprintf("%d", s.cfg.Session)}
	if s.cfg.Tenant != "" {
		l["tenant"] = s.cfg.Tenant
	}
	counters := []struct {
		name string
		fn   func() float64
	}{
		{"ndmp_records_total", func() float64 { return float64(s.stats.Records) }},
		{"ndmp_replayed_total", func() float64 { return float64(s.stats.Replayed) }},
		{"ndmp_reconnects_total", func() float64 { return float64(s.stats.Reconnects) }},
		{"ndmp_heartbeats_sent_total", func() float64 { return float64(s.stats.HeartbeatsSent) }},
		{"ndmp_timeouts_total", func() float64 { return float64(s.stats.Timeouts) }},
		{"ndmp_bad_frames_total", func() float64 { return float64(s.stats.BadFrames) }},
		{"ndmp_frames_sent_total", func() float64 { return float64(s.stats.FramesSent) }},
		{"ndmp_window_stalls_total", func() float64 { return float64(s.stats.WindowStalls) }},
	}
	for _, c := range counters {
		r.RegisterFunc(c.name, obs.KindCounter, l, c.fn)
	}
	r.RegisterFunc("ndmp_acked_records", obs.KindGauge, l, func() float64 {
		return float64(s.acked)
	})
}

// Acked returns the host's durable high-water mark as last heard.
func (s *Session) Acked() uint64 { return s.acked }

func (s *Session) ctxErr() error {
	if s.cfg.Ctx != nil {
		return s.cfg.Ctx.Err()
	}
	return nil
}

func (s *Session) proc() *sim.Proc {
	if s.cfg.Proc != nil {
		return s.cfg.Proc
	}
	if s.cfg.Ctx != nil {
		return sim.ProcFrom(s.cfg.Ctx)
	}
	return nil
}

// isTerminal reports errors that reconnect-and-replay cannot fix:
// cancellation, a declared-dead peer, an exhausted redial budget, or
// a host-side failure relayed over the wire.
func isTerminal(err error) bool {
	var re *RemoteError
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrPeerDead) ||
		errors.Is(err, ErrSessionLost) ||
		errors.As(err, &re)
}

// slideTo advances the high-water mark, dropping acknowledged window
// entries: their buffers go to the free list, and the window is
// compacted in place so its backing array is never outgrown.
func (s *Session) slideTo(acked uint64) {
	if acked <= s.acked {
		return
	}
	i := 0
	for i < len(s.window) && s.window[i].seq <= acked {
		s.free = append(s.free, s.window[i].data)
		i++
	}
	s.window = s.window[:copy(s.window, s.window[i:])]
	s.acked = acked
	if s.sentThrough < acked {
		s.sentThrough = acked
	}
}

// connect dials and handshakes, telling the host the mark this client
// has seen acknowledged. On success the host's high-water mark has been
// folded in and unacknowledged records are marked for retransmission —
// the resume handshake in one round trip.
func (s *Session) connect() error {
	if s.conn != nil {
		s.conn.Close()
	}
	conn, err := s.dial()
	if err != nil {
		return err
	}
	s.conn = conn
	hello := transport.Encode(&transport.Frame{Type: MsgHello, Flags: FlagAckNow, Seq: s.acked,
		Payload: appendHello(nil, Hello{Version: Version, Kind: s.cfg.Kind, Session: s.cfg.Session,
			Stream: s.cfg.Stream, Level: s.cfg.Level, FSID: s.cfg.FSID, Tenant: s.cfg.Tenant})})
	a, err := s.request(hello, MsgHelloAck)
	if err != nil {
		return err
	}
	if a.status == AckErr {
		return &RemoteError{Op: "hello", Msg: a.msg}
	}
	if a.acked < s.acked {
		// A standby (or amnesiac) host: it holds none of the records
		// this client already saw acknowledged. Terminal for this
		// session — the engine resumes from its own last checkpoint
		// on a fresh stream.
		return &StaleStreamError{Session: s.cfg.Session, Stream: s.cfg.Stream}
	}
	s.slideTo(a.acked)
	s.eom = a.status == AckEOM
	s.sentThrough = s.acked
	s.gapReplay = 0
	s.silence = 0
	return nil
}

// reconnect runs the exponential-backoff redial loop after cause.
// Backoff is charged to the simulated clock when one is attached.
//
// Total backoff is capped at DeadAfter: a peer that has been silent
// that long is already declared dead by the heartbeat detector, so
// sleeping past it would just delay the ErrSessionLost the engine
// needs to start its checkpoint resume. Exponential backoff doubles
// every attempt — without the cap, a generous MaxRetries spins the
// redial loop multiples of DeadAfter past dead-peer detection.
func (s *Session) reconnect(cause error) error {
	var slept time.Duration
	attempts := 0
	for attempt := 1; attempt <= s.cfg.Redial.MaxRetries; attempt++ {
		if err := s.ctxErr(); err != nil {
			return err
		}
		delay := s.cfg.Redial.Delay(attempt)
		if slept+delay > s.cfg.DeadAfter {
			if attempts > 0 {
				cause = fmt.Errorf("redial backoff %v would exceed dead-peer window %v: %w",
					slept+delay, s.cfg.DeadAfter, cause)
				break
			}
			// An aggressive policy whose very first backoff overshoots
			// the window must not skip dialing altogether: a transient
			// blip (link already healed) would be reported as a lost
			// session without a single attempt. Dial once, immediately.
			delay = 0
		}
		slept += delay
		if delay > 0 {
			if p := s.proc(); p != nil {
				p.Sleep(delay)
			}
		}
		attempts++
		err := s.connect()
		if err == nil {
			s.stats.Reconnects++
			return nil
		}
		if isTerminal(err) {
			return err
		}
		cause = err
	}
	return &SessionLostError{Cause: cause, Reconnects: s.stats.Reconnects}
}

// request sends req and waits for a response frame of the wanted
// type, resending req on every receive timeout (the resend doubles
// as a heartbeat; all our requests are idempotent on the host).
// Other acks that arrive meanwhile still slide the window. A request
// is a few per session, so req is its own buffer, not sendBuf.
func (s *Session) request(req []byte, want byte) (ack, error) {
	s.stats.FramesSent++
	if err := s.conn.Send(req); err != nil {
		return ack{}, err
	}
	var silence time.Duration
	for {
		if err := s.ctxErr(); err != nil {
			return ack{}, err
		}
		raw, err := s.conn.Recv(s.cfg.HeartbeatEvery)
		if err != nil {
			if !errors.Is(err, transport.ErrTimeout) {
				return ack{}, err
			}
			s.stats.Timeouts++
			silence += s.cfg.HeartbeatEvery
			if silence >= s.cfg.DeadAfter {
				return ack{}, fmt.Errorf("no answer for %v: %w", silence, ErrPeerDead)
			}
			s.stats.FramesSent++
			if err := s.conn.Send(req); err != nil {
				return ack{}, err
			}
			continue
		}
		silence = 0
		f, derr := transport.Decode(raw)
		if derr != nil {
			s.stats.BadFrames++
			continue
		}
		if f.Type == want {
			a, aerr := decodeAck(f.Payload)
			if aerr != nil {
				s.stats.BadFrames++
				continue
			}
			return a, nil
		}
		if err := s.handleFrame(f); err != nil {
			return ack{}, err
		}
	}
}

// transmit sends every window entry above sentThrough. Entries at or
// past half occupancy request an immediate ack, which keeps the ack
// stream sparse on a healthy link yet bounds how far the host's
// high-water mark can lag.
func (s *Session) transmit() error {
	if s.eom {
		return nil // no point pumping a full volume
	}
	for i := range s.window {
		p := &s.window[i]
		if p.seq <= s.sentThrough {
			continue
		}
		var flags byte
		if (p.seq-s.acked)*2 >= uint64(s.cfg.Window) {
			flags = FlagAckNow
		}
		s.stats.FramesSent++
		if err := s.send(&transport.Frame{Type: MsgData, Flags: flags, Seq: p.seq, Payload: p.data}); err != nil {
			return err
		}
		if p.seq <= s.maxSent {
			s.stats.Replayed++
		} else {
			s.maxSent = p.seq
		}
		s.sentThrough = p.seq
	}
	return nil
}

// send encodes f into the send buffer and transmits it. Conn.Send
// keeps none of the buffer, so the next frame may overwrite it.
func (s *Session) send(f *transport.Frame) error {
	s.sendBuf = transport.AppendFrame(s.sendBuf[:0], f)
	return s.conn.Send(s.sendBuf)
}

// probe sends a heartbeat; the host answers with its current status,
// which doubles as an ack solicitation.
func (s *Session) probe() error {
	s.stats.HeartbeatsSent++
	s.stats.FramesSent++
	return s.send(&transport.Frame{Type: MsgHeartbeat, Flags: FlagAckNow})
}

// recvOnce waits one heartbeat interval for a frame and processes
// it. Accumulated silence past DeadAfter surfaces ErrPeerDead.
func (s *Session) recvOnce() error {
	raw, err := s.conn.Recv(s.cfg.HeartbeatEvery)
	if err != nil {
		if !errors.Is(err, transport.ErrTimeout) {
			return err
		}
		s.stats.Timeouts++
		s.silence += s.cfg.HeartbeatEvery
		if s.silence >= s.cfg.DeadAfter {
			return fmt.Errorf("no traffic for %v: %w", s.silence, ErrPeerDead)
		}
		// A full heartbeat interval with nothing back is evidence the
		// in-flight tail may have been lost: a dropped data frame leaves
		// no gap for the host to notice (it never saw the sequence), so
		// its heartbeat replies would re-ack the old high-water mark
		// forever. Go-back-N: mark the unacked tail unsent so the next
		// transmit replays it (the host counts duplicates and drops them).
		s.sentThrough = s.acked
		return s.probe()
	}
	s.silence = 0
	f, derr := transport.Decode(raw)
	if derr != nil {
		// A frame mangled on the way back: ask for a status resend.
		s.stats.BadFrames++
		return s.probe()
	}
	return s.handleFrame(f)
}

// handleFrame folds one received ack into the window state.
func (s *Session) handleFrame(f transport.Frame) error {
	if f.Type != MsgAck {
		return nil // stale handshake/volume/close acks carry nothing new
	}
	a, err := decodeAck(f.Payload)
	if err != nil {
		s.stats.BadFrames++
		return nil
	}
	switch a.status {
	case AckErr:
		return &RemoteError{Op: "data", Msg: a.msg}
	case AckGap:
		// Frames lost in flight: replay everything unacknowledged, once
		// per gap point. Every frame past the hole draws a gap ack at
		// the same mark, and the first has already started the replay;
		// one that is itself lost is caught by recvOnce's go-back.
		s.slideTo(a.acked)
		if s.gapReplay != s.acked+1 {
			s.gapReplay = s.acked + 1
			s.sentThrough = s.acked
		}
	case AckEOM:
		s.slideTo(a.acked)
		s.eom = true
	default:
		s.slideTo(a.acked)
	}
	return nil
}

// advance transmits the backlog and processes acks until cond holds,
// reconnecting (with replay) on recoverable connection failures.
func (s *Session) advance(cond func() bool) error {
	for {
		if err := s.ctxErr(); err != nil {
			return err
		}
		err := s.transmit()
		if err == nil {
			if cond() {
				return nil
			}
			err = s.recvOnce()
		}
		if err != nil {
			if isTerminal(err) {
				return err
			}
			if err = s.reconnect(err); err != nil {
				return err
			}
		}
	}
}

// WriteRecord implements the sink contract over the wire: append the
// record to the send window, transmit, and block only when the
// window is full. ErrEndOfMedia is returned for exactly the record
// that did not fit — it is withdrawn from the window so the engine's
// resubmission after NextVolume is not a duplicate.
func (s *Session) WriteRecord(rec []byte) error {
	if s.closed {
		return errors.New("ndmp: write on closed session")
	}
	if err := s.ctxErr(); err != nil {
		return err
	}
	if s.eom {
		return recstream.ErrEndOfMedia
	}
	seq := s.nextSeq
	s.nextSeq++
	s.window = append(s.window, pending{seq: seq, data: append(s.takeBuf(), rec...)})
	s.stats.Records++
	if len(s.window) >= s.cfg.Window {
		s.stats.WindowStalls++
	}
	if err := s.advance(func() bool { return s.eom || len(s.window) < s.cfg.Window }); err != nil {
		return err
	}
	if s.eom && s.acked < seq && len(s.window) > 0 && s.window[len(s.window)-1].seq == seq {
		// The volume filled at (or before) our record and ours is the
		// youngest unacknowledged one: withdraw it and report EOM, so
		// the engine retries this exact record on the next volume.
		// Older unacknowledged records stay in the window and replay
		// there first, preserving stream order.
		s.free = append(s.free, s.window[len(s.window)-1].data)
		s.window = s.window[:len(s.window)-1]
		s.nextSeq = seq
		s.stats.Records--
		return recstream.ErrEndOfMedia
	}
	return nil
}

// takeBuf returns an empty buffer for the next window entry: an
// acknowledged record's, when there is one.
func (s *Session) takeBuf() []byte {
	n := len(s.free)
	if n == 0 {
		return nil
	}
	buf := s.free[n-1][:0]
	s.free = s.free[:n-1]
	return buf
}

// NextVolume asks the host to mount the next cartridge, then marks
// the unacknowledged backlog for replay onto it. Idempotent on the
// host, so lost requests and lost confirmations are both retried
// safely; a reconnect that lands after the switch already happened
// simply returns.
func (s *Session) NextVolume() error {
	if s.closed {
		return errors.New("ndmp: next-volume on closed session")
	}
	req := transport.Encode(&transport.Frame{Type: MsgNextVol, Flags: FlagAckNow})
	for {
		if err := s.ctxErr(); err != nil {
			return err
		}
		a, err := s.request(req, MsgVolAck)
		if err != nil {
			if isTerminal(err) {
				return err
			}
			if err = s.reconnect(err); err != nil {
				return err
			}
			if !s.eom {
				return nil // handshake says the switch already happened
			}
			continue
		}
		if a.status == AckErr {
			return &RemoteError{Op: "next-volume", Msg: a.msg}
		}
		s.slideTo(a.acked)
		s.eom = false
		s.sentThrough = s.acked
		return nil
	}
}

// Sync drains the send window, blocking until every record accepted
// so far is acknowledged durable, then has the host confirm the
// checkpoint in one MsgSync round trip. It implements stream.Syncer:
// the dump engines call it after emitting a checkpoint marker, which
// is what makes a checkpoint over the wire mean the same thing it
// means on a local drive — everything up to the marker is on tape. A
// Sync with nothing acknowledged since the last confirmed checkpoint
// sends no MsgSync. If the host is later lost, a fresh host answers
// the Hello with a lower mark and the engine resumes from that
// checkpoint (StaleStreamError). End of media can surface mid-drain
// (provisionally accepted tail records did not fit); the volume switch
// that a local drive would have demanded one write earlier is driven
// here.
func (s *Session) Sync() error {
	if s.closed {
		return errors.New("ndmp: sync on closed session")
	}
	if len(s.window) > 0 {
		_ = s.probe() // solicit the tail acks; failures recover in advance
	}
	for {
		if err := s.advance(func() bool { return len(s.window) == 0 || s.eom }); err != nil {
			return err
		}
		if len(s.window) == 0 {
			break
		}
		if err := s.NextVolume(); err != nil {
			return err
		}
	}
	for s.synced < s.acked {
		if err := s.ctxErr(); err != nil {
			return err
		}
		req := transport.Encode(&transport.Frame{Type: MsgSync, Flags: FlagAckNow, Seq: s.acked})
		a, err := s.request(req, MsgSyncAck)
		if err != nil {
			if isTerminal(err) {
				return err
			}
			if err = s.reconnect(err); err != nil {
				return err
			}
			continue
		}
		if a.status == AckErr {
			return &RemoteError{Op: "sync", Msg: a.msg}
		}
		if a.acked < s.acked {
			// The host lost records it had acknowledged.
			return &StaleStreamError{Session: s.cfg.Session, Stream: s.cfg.Stream}
		}
		s.slideTo(a.acked)
		s.synced = s.acked
	}
	return nil
}

// Close drains the send window — every record must be acknowledged
// durable before the dump may be reported complete — then announces
// a clean end of stream (best effort: once the data is durable, a
// lost goodbye costs nothing).
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	err := s.Sync()
	if err == nil {
		req := transport.Encode(&transport.Frame{Type: MsgClose, Flags: FlagAckNow})
		if _, cerr := s.request(req, MsgCloseAck); cerr != nil {
			var re *RemoteError
			if errors.As(cerr, &re) {
				err = cerr
			}
		}
	}
	s.closed = true
	if s.conn != nil {
		s.conn.Close()
	}
	return err
}
