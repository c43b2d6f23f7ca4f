package ndmp

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/transport"
)

// closeSink is a memSink that records finalization, so tests can
// prove eviction closes displaced sinks instead of leaking them.
type closeSink struct {
	memSink
	closed int
}

func (c *closeSink) Close() error { c.closed++; return nil }

// connHarness wires one client link to its own registry binding on a
// shared host — the multi-client shape of harness().
func connHarness(host *Host, l *transport.Link) Dialer {
	l.B().Attach(host.NewConn().HandleFrame)
	return func() (transport.Conn, error) {
		if l.Down() {
			l.Heal()
		}
		return l.A(), nil
	}
}

// TestTransportHostConcurrentSessions interleaves two tenants' streams
// through one host over separate connections: the registry must keep
// their sinks, ack marks and EOM latches apart, and both must land
// byte-identical. On the pre-registry host the second Hello silently
// stole the first client's sink and reset its high-water mark.
func TestTransportHostConcurrentSessions(t *testing.T) {
	sinks := make(map[string]*closeSink)
	host := NewHost(func(h Hello) (Sink, error) {
		s := &closeSink{}
		sinks[fmt.Sprintf("%s/%d", h.Tenant, h.Session)] = s
		return s, nil
	})
	lA := transport.NewLink(transport.DefaultParams())
	lB := transport.NewLink(transport.DefaultParams())
	sA, err := Dial(connHarness(host, lA), Config{Kind: KindLogical, Session: 0xA, Tenant: "acme", Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	sB, err := Dial(connHarness(host, lB), Config{Kind: KindLogical, Session: 0xB, Tenant: "buyn", Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := host.ActiveStreams(); got != 2 {
		t.Fatalf("active streams = %d, want 2", got)
	}
	recsA, recsB := testRecords(40), testRecords(40)
	for i := range recsB {
		recsB[i] = append([]byte("B|"), recsB[i]...)
	}
	// Interleave record by record: every frame alternates sessions, so
	// any cross-session state bleed corrupts at least one stream.
	for i := range recsA {
		if err := sA.WriteRecord(recsA[i]); err != nil {
			t.Fatalf("A record %d: %v", i, err)
		}
		if err := sB.WriteRecord(recsB[i]); err != nil {
			t.Fatalf("B record %d: %v", i, err)
		}
	}
	if err := sA.Close(); err != nil {
		t.Fatalf("close A: %v", err)
	}
	if err := sB.Close(); err != nil {
		t.Fatalf("close B: %v", err)
	}
	assertIdentical(t, sinks["acme/10"].recs, recsA)
	assertIdentical(t, sinks["buyn/11"].recs, recsB)
	if got := host.ActiveStreams(); got != 0 {
		t.Fatalf("after closes active streams = %d, want 0", got)
	}
	hs := host.Stats()
	if hs.Sessions != 2 || hs.Records != 80 || hs.Streams != 2 {
		t.Fatalf("host stats %+v", hs)
	}
	// Clean close finalizes each session's sinks (the displaced-sink
	// leak: sinks used to leave the host without ever being closed).
	for k, s := range sinks {
		if s.closed != 1 {
			t.Fatalf("sink %s closed %d times, want 1", k, s.closed)
		}
	}
	if host.TenantBytes("acme") == 0 || host.TenantBytes("buyn") == 0 {
		t.Fatal("per-tenant byte accounting missing")
	}
}

// TestTransportHostEvictFinalizesSink proves explicit eviction — the
// registry's replacement for silently dropping a displaced stream —
// closes the sink exactly once and frees the slot.
func TestTransportHostEvictFinalizesSink(t *testing.T) {
	var sink closeSink
	host := NewHost(func(Hello) (Sink, error) { return &sink, nil })
	l := transport.NewLink(transport.DefaultParams())
	s, err := Dial(connHarness(host, l), Config{Kind: KindLogical, Session: 7, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	pushAll(t, s, testRecords(5))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if !host.Evict(7, 0) {
		t.Fatal("evict of a registered stream returned false")
	}
	if sink.closed != 1 {
		t.Fatalf("evicted sink closed %d times, want 1", sink.closed)
	}
	if host.Evict(7, 0) {
		t.Fatal("double eviction returned true")
	}
	if got := host.ActiveStreams(); got != 0 {
		t.Fatalf("active streams = %d, want 0", got)
	}
	// Host.Close on a fresh registry entry also finalizes.
	s2, err := Dial(connHarness(host, transport.NewLink(transport.DefaultParams())),
		Config{Kind: KindLogical, Session: 8, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	_ = s2
	if err := host.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.closed != 2 {
		t.Fatalf("sink closed %d times after host close, want 2", sink.closed)
	}
}

// TestTransportHelloVersion: a Hello of the one protocol version is
// served; any other version — the retired v2 layout without a tenant
// suffix, a v1, a future one — is refused with AckErr, which the
// client surfaces as a RemoteError, and opens no sink.
func TestTransportHelloVersion(t *testing.T) {
	cur := Hello{Version: Version, Kind: KindImage, Session: 9, Stream: 2, Level: -1, FSID: "fs", Tenant: "acme"}
	got, err := decodeHello(appendHello(nil, cur))
	if err != nil {
		t.Fatal(err)
	}
	if got != cur {
		t.Fatalf("hello round-trip: %+v", got)
	}
	if _, err := decodeHello(appendHello(nil, cur)[:helloFixed+len(cur.FSID)]); !errors.Is(err, transport.ErrBadFrame) {
		t.Fatalf("hello cut before its tenant decoded with %v", err)
	}

	var opened int
	hc := NewHost(func(Hello) (Sink, error) { opened++; return &memSink{}, nil }).NewConn()
	sendHello := func(payload []byte) ack {
		t.Helper()
		resps := hc.HandleFrame(transport.Encode(&transport.Frame{
			Type: MsgHello, Payload: payload}))
		if len(resps) != 1 {
			t.Fatalf("hello got %d responses, want 1", len(resps))
		}
		f, err := transport.Decode(resps[0])
		if err != nil || f.Type != MsgHelloAck {
			t.Fatalf("hello response type %v err %v", f, err)
		}
		a, err := decodeAck(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	if a := sendHello(appendHello(nil, cur)); a.status != AckOK {
		t.Fatalf("hello refused: %+v", a)
	}
	if opened != 1 {
		t.Fatalf("hello opened %d sinks, want 1", opened)
	}
	v2 := appendHello(nil, Hello{Version: 2, Kind: KindLogical, Session: 3, Level: 1, FSID: "home0"})
	v2 = v2[:helloFixed+len("home0")] // v2 had no tenant suffix
	for _, p := range [][]byte{v2, appendHello(nil, Hello{Version: 1, Session: 4}), appendHello(nil, Hello{Version: Version + 1, Session: 5})} {
		if a := sendHello(p); a.status != AckErr || !strings.Contains(a.msg, "not supported") {
			t.Fatalf("version %d hello answered %+v", p[0], a)
		}
	}
	if opened != 1 {
		t.Fatalf("refused hellos opened sinks (%d)", opened)
	}
}

// TestTransportReconnectAggressiveBackoffStillDials cuts the link
// under a redial policy whose very first backoff exceeds DeadAfter.
// The session must still make one immediate dial attempt — pre-fix
// the cap broke out before ever dialing, so a healable blip was
// reported as a lost session without a single redial.
func TestTransportReconnectAggressiveBackoffStillDials(t *testing.T) {
	l := transport.NewLink(transport.DefaultParams())
	sink := &memSink{}
	host, dial, opened := harness(l, sink)
	s, err := Dial(dial, Config{
		Kind: KindLogical, Session: 0xD1A1, Window: 4,
		HeartbeatEvery: 20 * time.Millisecond,
		DeadAfter:      100 * time.Millisecond,
		// Delay(1) = 1s > DeadAfter: the backoff cap refuses every
		// *scheduled* attempt; only the immediate first try can run.
		Redial: storage.RetryPolicy{MaxRetries: 6, Initial: time.Second, Multiplier: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(20)
	for i, rec := range recs[:10] {
		if err := s.WriteRecord(rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	l.Cut() // hard cut; the dialer heals it on the next dial
	for i, rec := range recs[10:] {
		if err := s.WriteRecord(rec); err != nil {
			t.Fatalf("record %d after cut: %v", 10+i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	assertIdentical(t, sink.recs, recs)
	if *opened != 1 {
		t.Fatalf("sink opened %d times, want 1 (resume, not restart)", *opened)
	}
	if s.Stats().Reconnects == 0 {
		t.Fatal("no reconnect recorded despite the cut")
	}
	_ = host
}

// TestTransportDataBeforeHello: a connection that skips the handshake
// gets AckErr, not a crash or a silent bind.
func TestTransportDataBeforeHello(t *testing.T) {
	host := NewHost(func(Hello) (Sink, error) { return &memSink{}, nil })
	resps := host.NewConn().HandleFrame(transport.Encode(&transport.Frame{
		Type: MsgData, Seq: 1, Payload: []byte("x")}))
	if len(resps) != 1 {
		t.Fatalf("%d responses, want 1", len(resps))
	}
	f, err := transport.Decode(resps[0])
	if err != nil {
		t.Fatal(err)
	}
	a, err := decodeAck(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if a.status != AckErr {
		t.Fatalf("data before hello answered %+v", a)
	}
}

// gateFunc adapts closures to the Gate interface for host tests.
type gateFunc struct {
	admit  func(tenant string, session uint64, stream int) (Admission, string)
	charge func(tenant string, session uint64, stream int, n int) bool
	rel    func(tenant string, session uint64, stream int)
}

func (g gateFunc) Admit(t string, s uint64, st int) (Admission, string) {
	if g.admit == nil {
		return AdmitGranted, ""
	}
	return g.admit(t, s, st)
}
func (g gateFunc) Release(t string, s uint64, st int) {
	if g.rel != nil {
		g.rel(t, s, st)
	}
}
func (g gateFunc) Charge(t string, s uint64, st int, n int) bool {
	if g.charge == nil {
		return true
	}
	return g.charge(t, s, st, n)
}

// TestTransportGateWaitAdmitsLater: while the gate answers Wait the
// Hello goes unanswered and the client's own retries poll admission;
// once the gate grants, the same Dial completes. The client never
// sees a protocol error — waiting is silence, not refusal.
func TestTransportGateWaitAdmitsLater(t *testing.T) {
	polls := 0
	host := NewHost(func(Hello) (Sink, error) { return &memSink{}, nil })
	host.Gate = gateFunc{admit: func(string, uint64, int) (Admission, string) {
		polls++
		if polls < 3 {
			return AdmitWait, ""
		}
		return AdmitGranted, ""
	}}
	env := sim.NewEnv()
	l := transport.NewLink(transport.DefaultParams())
	l.B().Attach(host.NewConn().HandleFrame)
	var dialErr error
	var waited sim.Time
	env.Spawn("mover", func(p *sim.Proc) {
		l.A().Bind(p)
		start := p.Now()
		s, err := Dial(func() (transport.Conn, error) { return l.A(), nil },
			Config{Kind: KindLogical, Session: 11, Window: 4,
				HeartbeatEvery: 50 * time.Millisecond, DeadAfter: time.Second, Proc: p})
		waited = p.Now() - start
		if err != nil {
			dialErr = err
			return
		}
		dialErr = s.Close()
	})
	env.Run()
	if dialErr != nil {
		t.Fatalf("gated dial: %v", dialErr)
	}
	if polls < 3 {
		t.Fatalf("gate polled %d times, want >= 3", polls)
	}
	// Two Wait rounds at one Hello retry per heartbeat interval.
	if waited < sim.Time(100*time.Millisecond) {
		t.Fatalf("admitted after %v, expected at least two retry intervals", time.Duration(waited))
	}
	if hs := host.Stats(); hs.Waits < 2 {
		t.Fatalf("host stats %+v, want >= 2 waits", hs)
	}
}

// TestTransportGateRejectIsTerminal: a Reject becomes AckErr, which
// the client surfaces as a RemoteError from Dial.
func TestTransportGateRejectIsTerminal(t *testing.T) {
	host := NewHost(func(Hello) (Sink, error) { return &memSink{}, nil })
	host.Gate = gateFunc{admit: func(string, uint64, int) (Admission, string) {
		return AdmitReject, "drive pool busy"
	}}
	l := transport.NewLink(transport.DefaultParams())
	l.B().Attach(host.NewConn().HandleFrame)
	_, err := Dial(func() (transport.Conn, error) { return l.A(), nil },
		Config{Kind: KindLogical, Session: 12, Window: 4})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("rejected dial returned %v, want RemoteError", err)
	}
}

// TestTransportGateThrottleWithholdsCredit: with a gate that denies
// charges, acks stop advancing past the already-released mark, so the
// client stalls on its window; when the gate relents the stream
// drains. Correctness is untouched — every byte still lands once.
func TestTransportGateThrottleWithholdsCredit(t *testing.T) {
	sink := &memSink{}
	host := NewHost(func(Hello) (Sink, error) { return sink, nil })
	var deny atomic.Bool
	host.Gate = gateFunc{charge: func(_ string, _ uint64, _ int, n int) bool {
		return !deny.Load()
	}}
	env := sim.NewEnv()
	l := transport.NewLink(transport.DefaultParams())
	l.B().Attach(host.NewConn().HandleFrame)
	recs := testRecords(24)
	var pushErr error
	env.Spawn("unthrottle", func(p *sim.Proc) {
		// The mover blocks on its stalled window while throttled; this
		// proc is the "bucket refill" that lets it drain again.
		p.Sleep(500 * time.Millisecond)
		deny.Store(false)
	})
	env.Spawn("mover", func(p *sim.Proc) {
		l.A().Bind(p)
		s, err := Dial(func() (transport.Conn, error) { return l.A(), nil },
			Config{Kind: KindLogical, Session: 13, Window: 4,
				HeartbeatEvery: 20 * time.Millisecond, DeadAfter: 10 * time.Second, Proc: p})
		if err != nil {
			pushErr = err
			return
		}
		for i, rec := range recs {
			if i == 8 {
				deny.Store(true) // tenant over its byte rate mid-stream
			}
			if err := s.WriteRecord(rec); err != nil {
				pushErr = fmt.Errorf("record %d: %w", i, err)
				return
			}
		}
		pushErr = s.Close()
	})
	env.Run()
	if pushErr != nil {
		t.Fatal(pushErr)
	}
	assertIdentical(t, sink.recs, recs)
	if hs := host.Stats(); hs.Throttled == 0 {
		t.Fatalf("host stats %+v, want throttled > 0", hs)
	}
}

// TestHelloWithMarkOpensNoMedia: a client fails over to a host that
// holds nothing of its stream after seeing four records acknowledged.
// Its Hello says so (Seq 4), and the host answers mark 0 without
// consulting the Gate or opening a sink, so the client ends the stream
// with a StaleStreamError and the host is left with no stream and no
// media. A fresh Hello (Seq 0) for another stream still opens one.
func TestHelloWithMarkOpensNoMedia(t *testing.T) {
	hostA := NewHost(func(Hello) (Sink, error) { return &memSink{}, nil })
	var admits, opened int
	hostB := NewHost(func(Hello) (Sink, error) { opened++; return &memSink{}, nil })
	hostB.Gate = gateFunc{admit: func(string, uint64, int) (Admission, string) {
		admits++
		return AdmitGranted, ""
	}}
	linkA := transport.NewLink(transport.DefaultParams())
	linkB := transport.NewLink(transport.DefaultParams())
	linkA.B().Attach(hostA.NewConn().HandleFrame)
	linkB.B().Attach(hostB.NewConn().HandleFrame)
	dial := func() (transport.Conn, error) {
		if linkA.Severed() {
			return linkB.A(), nil
		}
		return linkA.A(), nil
	}
	s, err := Dial(dial, Config{Kind: KindLogical, Session: 21, Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(5)
	pushAll(t, s, recs[:4])
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	linkA.Sever()
	err = s.WriteRecord(recs[4])
	if err == nil {
		err = s.Sync()
	}
	var se *StaleStreamError
	if !errors.As(err, &se) {
		t.Fatalf("push after failover: %v, want a StaleStreamError", err)
	}
	if admits != 0 || opened != 0 || hostB.ActiveStreams() != 0 || hostB.Stats().Streams != 0 {
		t.Fatalf("a Hello with a mark: %d admissions, %d sinks opened, %d streams registered (%+v); want none",
			admits, opened, hostB.ActiveStreams(), hostB.Stats())
	}

	fresh, err := Dial(func() (transport.Conn, error) { return linkB.A(), nil },
		Config{Kind: KindLogical, Session: 21, Stream: 1, Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Close(); err != nil {
		t.Fatal(err)
	}
	if admits != 1 || opened != 1 {
		t.Fatalf("a fresh Hello: %d admissions, %d sinks opened; want 1 and 1", admits, opened)
	}
}
