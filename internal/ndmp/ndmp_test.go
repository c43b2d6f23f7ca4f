package ndmp

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
	recstream "repro/internal/stream"
	"repro/internal/transport"
)

// memSink is a tape-host sink with an optional per-volume record
// capacity, recording everything durably written in order.
type memSink struct {
	cap  int // records per volume; 0 = unlimited
	cur  int
	recs [][]byte
	vols int
}

func (m *memSink) WriteRecord(rec []byte) error {
	if m.cap > 0 && m.cur >= m.cap {
		return recstream.ErrEndOfMedia
	}
	m.cur++
	m.recs = append(m.recs, append([]byte(nil), rec...))
	return nil
}

func (m *memSink) NextVolume() error { m.cur = 0; m.vols++; return nil }

// harness wires a host to a simulated link's B side and returns a
// dialer for the A side that heals hard cuts on redial (the network
// comes back when the client retries).
func harness(l *transport.Link, sink Sink) (*Host, Dialer, *int) {
	opened := 0
	host := NewHost(func(Hello) (Sink, error) { opened++; return sink, nil })
	l.B().Attach(host.NewConn().HandleFrame)
	dials := 0
	dial := func() (transport.Conn, error) {
		dials++
		if l.Down() {
			l.Heal()
		}
		return l.A(), nil
	}
	_ = dials
	return host, dial, &opened
}

func testRecords(n int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = []byte(fmt.Sprintf("record-%04d|%s", i, bytes.Repeat([]byte{byte(i)}, 32)))
	}
	return recs
}

// pushAll drives records through the session the way both dump
// engines do: resubmit the exact record after ErrEndOfMedia.
func pushAll(t *testing.T, s *Session, recs [][]byte) {
	t.Helper()
	for i, rec := range recs {
		err := s.WriteRecord(rec)
		for errors.Is(err, recstream.ErrEndOfMedia) {
			if verr := s.NextVolume(); verr != nil {
				t.Fatalf("record %d: next volume: %v", i, verr)
			}
			err = s.WriteRecord(rec)
		}
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
}

func assertIdentical(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("host has %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d differs on the host", i)
		}
	}
}

func TestTransportSessionCleanStream(t *testing.T) {
	l := transport.NewLink(transport.DefaultParams())
	sink := &memSink{}
	host, dial, opened := harness(l, sink)
	s, err := Dial(dial, Config{Kind: KindLogical, Session: 0x5EED, Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(50)
	pushAll(t, s, recs)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	assertIdentical(t, sink.recs, recs)
	if *opened != 1 {
		t.Fatalf("sink opened %d times, want 1", *opened)
	}
	if hs := host.Stats(); hs.Records != 50 || hs.Gaps != 0 {
		t.Fatalf("host stats: %+v", hs)
	}
	if err := s.WriteRecord([]byte("x")); err == nil {
		t.Fatal("write after close must fail")
	}
}

func TestTransportSessionEndOfMediaAcrossVolumes(t *testing.T) {
	l := transport.NewLink(transport.DefaultParams())
	sink := &memSink{cap: 5}
	host, dial, _ := harness(l, sink)
	s, err := Dial(dial, Config{Kind: KindImage, Session: 1, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(23)
	pushAll(t, s, recs)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	assertIdentical(t, sink.recs, recs)
	// 23 records at 5/volume: at least 4 volume switches served.
	if sink.vols < 4 {
		t.Fatalf("volume switches = %d, want >= 4", sink.vols)
	}
	if hs := host.Stats(); hs.NextVols < 4 {
		t.Fatalf("host served %d next-vols: %+v", hs.NextVols, hs)
	}
}

func TestTransportSessionReconnectAfterCuts(t *testing.T) {
	l := transport.NewLink(transport.DefaultParams())
	// Three hard partitions at fixed cumulative frame counts; the
	// triggering frame is lost in flight each time.
	l.Arm(transport.FaultConfig{Seed: 7, CutAfterFrames: []int{20, 55, 90}})
	sink := &memSink{}
	host, dial, opened := harness(l, sink)
	s, err := Dial(dial, Config{Kind: KindLogical, Session: 2, Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(60)
	pushAll(t, s, recs)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	assertIdentical(t, sink.recs, recs)
	st := s.Stats()
	if st.Reconnects < 3 {
		t.Fatalf("reconnects = %d, want >= 3 (stats %+v, link %+v)", st.Reconnects, st, l.Stats())
	}
	if st.Replayed == 0 {
		t.Fatal("cuts lost in-flight records but nothing was replayed")
	}
	if *opened != 1 {
		t.Fatalf("reconnect reopened the sink (%d opens): resume must not restart the stream", *opened)
	}
	if hs := host.Stats(); hs.Records != 60 {
		t.Fatalf("host stats: %+v", hs)
	}
}

func TestTransportSessionSurvivesLossyLink(t *testing.T) {
	l := transport.NewLink(transport.DefaultParams())
	l.Arm(transport.FaultConfig{
		Seed: 11, Drop: 0.15, Duplicate: 0.1, Corrupt: 0.08, Reorder: 0.15,
		CorruptAtFrames: []int{9},
		CutAfterFrames:  []int{70, 200},
		MaxFaults:       80,
	})
	sink := &memSink{cap: 7}
	host, dial, _ := harness(l, sink)
	s, err := Dial(dial, Config{Kind: KindImage, Session: 3, Window: 6})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(120)
	pushAll(t, s, recs)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The whole point: a lossy, reordering, corrupting, partitioning
	// wire and the tape still holds exactly the stream, in order.
	assertIdentical(t, sink.recs, recs)
	ls, hs, ss := l.Stats(), host.Stats(), s.Stats()
	if ls.Dropped == 0 || ls.Corrupted == 0 || ls.Cuts != 2 {
		t.Fatalf("faults never fired: %+v", ls)
	}
	if hs.Gaps == 0 && hs.Duplicates == 0 && hs.BadFrames == 0 {
		t.Fatalf("host never saw damage: %+v", hs)
	}
	if ss.Replayed == 0 || ss.Reconnects < 2 {
		t.Fatalf("client stats: %+v", ss)
	}
}

func TestTransportSessionStreamSwitchReopensSink(t *testing.T) {
	l := transport.NewLink(transport.DefaultParams())
	var sinks []*memSink
	host := NewHost(func(h Hello) (Sink, error) {
		if h.Kind != KindLogical {
			return nil, fmt.Errorf("unexpected kind %d", h.Kind)
		}
		m := &memSink{}
		sinks = append(sinks, m)
		return m, nil
	})
	l.B().Attach(host.NewConn().HandleFrame)
	dial := func() (transport.Conn, error) { return l.A(), nil }
	recs := testRecords(10)
	for stream := 0; stream < 2; stream++ {
		s, err := Dial(dial, Config{Kind: KindLogical, Session: 9, Stream: stream})
		if err != nil {
			t.Fatal(err)
		}
		pushAll(t, s, recs)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if len(sinks) != 2 {
		t.Fatalf("factory opened %d sinks, want 2 (one per stream)", len(sinks))
	}
	for i, m := range sinks {
		if len(m.recs) != 10 {
			t.Fatalf("stream %d holds %d records", i, len(m.recs))
		}
	}
	if host.Stats().Streams != 2 {
		t.Fatalf("host stats: %+v", host.Stats())
	}
}

func TestTransportSessionRemoteErrorIsTerminal(t *testing.T) {
	l := transport.NewLink(transport.DefaultParams())
	host := NewHost(func(Hello) (Sink, error) { return nil, errors.New("stacker jammed") })
	l.B().Attach(host.NewConn().HandleFrame)
	dial := func() (transport.Conn, error) { return l.A(), nil }
	_, err := Dial(dial, Config{Session: 4})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want RemoteError, got %v", err)
	}
}

// TestHostRefusesUnknownKind: the kind byte doubles as the catalog's
// engine, so a Hello naming neither engine is refused before any media
// is opened for it.
func TestHostRefusesUnknownKind(t *testing.T) {
	for _, kind := range []byte{0, 3} {
		l := transport.NewLink(transport.DefaultParams())
		opened := false
		host := NewHost(func(Hello) (Sink, error) { opened = true; return &memSink{}, nil })
		l.B().Attach(host.NewConn().HandleFrame)
		_, err := Dial(func() (transport.Conn, error) { return l.A(), nil }, Config{Kind: kind, Session: 5})
		var re *RemoteError
		if !errors.As(err, &re) || opened {
			t.Fatalf("kind %d: err %v, sink opened %v; want RemoteError and no sink", kind, err, opened)
		}
	}
}

// TestTransportSessionDeadPeerDeadline is the acceptance test for
// heartbeat loss: a one-way partition silently eats every host
// response, and the client must surface ErrPeerDead within the
// configured DeadAfter on the simulated clock.
func TestTransportSessionDeadPeerDeadline(t *testing.T) {
	const (
		heartbeat = 100 * time.Millisecond
		deadAfter = 800 * time.Millisecond
	)
	env := sim.NewEnv()
	l := transport.NewLink(transport.DefaultParams())
	sink := &memSink{}
	_, dial, _ := harness(l, sink)
	var sessErr error
	var detected time.Duration
	env.Spawn("mover", func(p *sim.Proc) {
		l.A().Bind(p)
		s, err := Dial(dial, Config{
			Kind:           KindLogical,
			Session:        5,
			Window:         4,
			HeartbeatEvery: heartbeat,
			DeadAfter:      deadAfter,
			Proc:           p,
		})
		if err != nil {
			sessErr = err
			return
		}
		recs := testRecords(12)
		if err := s.WriteRecord(recs[0]); err != nil {
			sessErr = err
			return
		}
		// The host process hangs: its responses stop arriving.
		l.PartitionOneWay(false)
		start := p.Now()
		for _, rec := range recs[1:] {
			if err := s.WriteRecord(rec); err != nil {
				sessErr = err
				break
			}
		}
		detected = time.Duration(p.Now() - start)
	})
	env.Run()
	if !errors.Is(sessErr, ErrPeerDead) {
		t.Fatalf("want ErrPeerDead, got %v", sessErr)
	}
	if detected < deadAfter || detected > deadAfter+2*heartbeat {
		t.Fatalf("dead peer surfaced after %v, want within [%v, %v]", detected, deadAfter, deadAfter+2*heartbeat)
	}
}

func TestTransportProtoRoundTrip(t *testing.T) {
	h := Hello{Version: Version, Kind: KindImage, Session: 0xC0FFEE, Stream: 3, Level: -1, FSID: "home0"}
	got, err := decodeHello(appendHello(nil, h))
	if err != nil || got != h {
		t.Fatalf("hello round trip: %+v / %v", got, err)
	}
	a := ack{status: AckErr, acked: 42, msg: "stacker empty"}
	ga, err := decodeAck(appendAck(nil, a))
	if err != nil || ga != a {
		t.Fatalf("ack round trip: %+v / %v", ga, err)
	}
	if _, err := decodeHello([]byte{1}); err == nil {
		t.Fatal("short hello must fail")
	}
	if _, err := decodeAck(nil); err == nil {
		t.Fatal("short ack must fail")
	}
}

// TestTransportSessionSyncDrainsWindow: Sync blocks until every
// provisionally accepted record is acknowledged durable — the engines
// call it at checkpoint markers — including when the tail records need
// a volume switch to land.
func TestTransportSessionSyncDrainsWindow(t *testing.T) {
	l := transport.NewLink(transport.DefaultParams())
	sink := &memSink{cap: 5}
	host, dial, _ := harness(l, sink)
	s, err := Dial(dial, Config{Kind: KindLogical, Session: 9, Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(7) // provisional tail spills onto volume 2
	pushAll(t, s, recs)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := s.Acked(); got != uint64(len(recs)) {
		t.Fatalf("after sync acked = %d, want %d", got, len(recs))
	}
	assertIdentical(t, sink.recs, recs)
	if hs := host.Stats(); hs.Records != int64(len(recs)) {
		t.Fatalf("host records = %d, want %d", hs.Records, len(recs))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
