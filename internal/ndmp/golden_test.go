package ndmp

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"

	"repro/internal/transport"
)

// goldenHello is a Hello with an FSID and a tenant, as the whole frame
// a Session opens with, and goldenAcks an answer of every status with
// and without a message, as the whole frame a host's Conn sends: the
// hex was recorded before the payload encoders became codec.Enc callers
// appending into a connection's buffers (the Hello, the version refusal
// and the acks of Version 3 that carried a second mark were recorded
// again for Version 4). markedAck is such a Version 3 ack, which
// decodeAck refuses. internal/transport's golden test pins the other
// frames a data mover sends.
var (
	goldenHello = struct {
		h   Hello
		hex string
	}{Hello{Version: Version, Kind: KindLogical, Session: 0x5EED, Stream: 2, Level: 1, FSID: "fs042", Tenant: "tenant01"},
		"4e444d4601010000000000000000270000002f0f99380401ed5e00000000000002000000010000000500000066733034320800000074656e616e743031"}

	goldenAcks = []struct {
		typ byte
		a   ack
		hex string
	}{
		{MsgHelloAck, ack{status: AckOK},
			"4e444d46020000000000000000001100000060ecf8a00000000000000000000000000000000000"},
		{MsgAck, ack{status: AckOK, acked: 41},
			"4e444d460400290000000000000011000000e8ebd7570029000000000000000000000000000000"},
		{MsgAck, ack{status: AckOK, acked: 41, msg: "fine"},
			"4e444d46040029000000000000001500000070df1ec8002900000000000000000000000000000066696e65"},
		{MsgAck, ack{status: AckEOM, acked: 5},
			"4e444d46040005000000000000001100000026333e4f0105000000000000000000000000000000"},
		{MsgVolAck, ack{status: AckEOM, acked: 5, msg: "volume 3 full"},
			"4e444d46070005000000000000001e000000b4c096660105000000000000000000000000000000766f6c756d6520332066756c6c"},
		{MsgAck, ack{status: AckGap, acked: 9},
			"4e444d460400090000000000000011000000191c34420209000000000000000000000000000000"},
		{MsgAck, ack{status: AckGap, acked: 9, msg: "lost 10"},
			"4e444d460400090000000000000018000000b218ca4502090000000000000000000000000000006c6f7374203130"},
		{MsgSyncAck, ack{status: AckErr, acked: 3},
			"4e444d460b0003000000000000001100000023c67a060303000000000000000000000000000000"},
		{MsgHelloAck, ack{status: AckErr, msg: "version 2 not supported (host speaks 4)"},
			"4e444d46020000000000000000003800000033a5845f030000000000000000000000000000000076657273696f6e2032206e6f7420737570706f727465642028686f737420737065616b73203429"},
		{MsgCloseAck, ack{status: AckOK, acked: 512},
			"4e444d46090000020000000000001100000030d8026f0000020000000000000000000000000000"},
	}

	markedAck = "4e444d4604002900000000000000110000005ddac6e70029000000000000001100000000000000"
)

// sentConn records a copy of every frame sent through it.
type sentConn struct {
	transport.Conn
	sent [][]byte
}

func (c *sentConn) Send(raw []byte) error {
	c.sent = append(c.sent, append([]byte(nil), raw...))
	return c.Conn.Send(raw)
}

func TestGoldenMessageBytes(t *testing.T) {
	// The Hello a Session opens with.
	g := goldenHello
	l := transport.NewLink(transport.DefaultParams())
	l.B().Attach(NewHost(func(Hello) (Sink, error) { return &memSink{}, nil }).NewConn().HandleFrame)
	conn := &sentConn{Conn: l.A()}
	if _, err := Dial(func() (transport.Conn, error) { return conn, nil }, Config{Kind: g.h.Kind,
		Session: g.h.Session, Stream: g.h.Stream, Level: g.h.Level, FSID: g.h.FSID, Tenant: g.h.Tenant}); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(conn.sent[0]); got != g.hex {
		t.Errorf("hello encodes to %s, want %s", got, g.hex)
	}
	want, _ := hex.DecodeString(g.hex)
	f, err := transport.Decode(want)
	if err != nil {
		t.Fatal(err)
	}
	if h, err := decodeHello(f.Payload); err != nil || h != g.h {
		t.Errorf("golden hello decodes to %+v, %v", h, err)
	}
	// A Hello cut anywhere inside its FSID or tenant is refused.
	for n := helloFixed; n < len(f.Payload); n++ {
		if _, err := decodeHello(f.Payload[:n]); !errors.Is(err, transport.ErrBadFrame) {
			t.Errorf("hello cut to %d bytes: %v", n, err)
		}
	}

	// The answers, all from one Conn's reused buffers.
	c := NewHost(nil).NewConn()
	for _, g := range goldenAcks {
		resp := c.respond(g.typ, g.a)
		if len(resp) != 1 || hex.EncodeToString(resp[0]) != g.hex {
			t.Errorf("%d %+v encodes to %x, want %s", g.typ, g.a, resp, g.hex)
		}
		want, _ := hex.DecodeString(g.hex)
		f, err := transport.Decode(want)
		if err != nil {
			t.Fatal(err)
		}
		if a, err := decodeAck(f.Payload); err != nil || a != g.a || f.Type != g.typ || f.Seq != g.a.acked {
			t.Errorf("golden %d %+v decodes to %d %+v, %v", g.typ, g.a, f.Type, a, err)
		}
		if _, err := decodeAck(f.Payload[:ackFixed-1]); !errors.Is(err, transport.ErrBadFrame) {
			t.Errorf("an ack cut to %d bytes: %v", ackFixed-1, err)
		}
	}
	raw, _ := hex.DecodeString(markedAck)
	if f, err := transport.Decode(raw); err != nil {
		t.Fatal(err)
	} else if a, err := decodeAck(f.Payload); !errors.Is(err, transport.ErrBadFrame) {
		t.Errorf("an ack with nonzero reserved bytes decodes to %+v, %v", a, err)
	}
}

// wireFrame is one frame of a recorded conversation: who sent it ("c"
// the client, "h" the host, "lost" a client frame dropped in flight),
// its type, sequence and payload length.
type wireFrame struct {
	from string
	typ  byte
	seq  uint64
	n    int
}

// goldenConversation is the whole exchange of TestGoldenConversation: a
// checkpointed push of twelve records through a four-record window,
// with data frame 3 lost once, two Syncs and a Close. The lost frame
// draws a gap ack from each of frames 4, 5 and 6; the first starts the
// one replay of frames 3–6, and the other two start nothing.
var goldenConversation = []wireFrame{
	{"c", MsgHello, 0, 26}, {"h", MsgHelloAck, 0, 17}, {"c", MsgData, 1, 44},
	{"c", MsgData, 2, 44}, {"h", MsgAck, 2, 17}, {"lost", MsgData, 3, 44},
	{"c", MsgData, 4, 44}, {"h", MsgAck, 2, 17}, {"c", MsgData, 5, 44},
	{"h", MsgAck, 2, 17}, {"c", MsgData, 6, 44}, {"h", MsgAck, 2, 17},
	{"c", MsgData, 3, 44}, {"c", MsgData, 4, 44}, {"h", MsgAck, 4, 17},
	{"c", MsgData, 5, 44}, {"h", MsgAck, 5, 17}, {"c", MsgData, 6, 44},
	{"h", MsgAck, 6, 17}, {"c", MsgHeartbeat, 0, 0}, {"h", MsgAck, 6, 17},
	{"c", MsgSync, 6, 0}, {"h", MsgSyncAck, 6, 17}, {"c", MsgData, 7, 44},
	{"c", MsgData, 8, 44}, {"h", MsgAck, 8, 17}, {"c", MsgData, 9, 44},
	{"h", MsgAck, 9, 17}, {"c", MsgData, 10, 44}, {"h", MsgAck, 10, 17},
	{"c", MsgHeartbeat, 0, 0}, {"h", MsgAck, 10, 17}, {"c", MsgSync, 10, 0},
	{"h", MsgSyncAck, 10, 17}, {"c", MsgData, 11, 44}, {"c", MsgData, 12, 44},
	{"h", MsgAck, 12, 17}, {"c", MsgHeartbeat, 0, 0}, {"h", MsgAck, 12, 17},
	{"c", MsgSync, 12, 0}, {"h", MsgSyncAck, 12, 17}, {"c", MsgClose, 0, 0},
	{"h", MsgCloseAck, 12, 17},
}

// conversation pushes twelve records through a four-record window over
// a simulated link, with a Sync after the sixth and the tenth and a
// Close, dropping the first `drops` sends of data frame 3. It checks
// that the host holds every record in order and returns every frame,
// the session's counts and the host's.
func conversation(t *testing.T, drops int) ([]wireFrame, SessionStats, HostStats) {
	t.Helper()
	var got []wireFrame
	record := func(from string, raw []byte) transport.Frame {
		f, err := transport.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, wireFrame{from, f.Type, f.Seq, len(f.Payload)})
		return f
	}
	sink := &memSink{}
	host := NewHost(func(Hello) (Sink, error) { return sink, nil })
	hc := host.NewConn()
	l := transport.NewLink(transport.DefaultParams())
	l.B().Attach(func(raw []byte) [][]byte {
		if f, _ := transport.Decode(raw); f.Type == MsgData && f.Seq == 3 && drops > 0 {
			drops--
			record("lost", raw)
			return nil
		}
		resps := hc.Handle(record("c", raw))
		for _, r := range resps {
			record("h", r)
		}
		return resps
	})
	s, err := Dial(func() (transport.Conn, error) { return l.A(), nil },
		Config{Kind: KindLogical, Session: 0x5EED, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(12)
	for i, rec := range recs {
		if err := s.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
		if i == 5 || i == 9 {
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if drops > 0 {
		t.Fatalf("data frame 3 went out too few times to drop %d more", drops)
	}
	if len(sink.recs) != len(recs) {
		t.Fatalf("the host holds %d records, want %d", len(sink.recs), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(sink.recs[i], recs[i]) {
			t.Fatalf("the host's record %d is %q, want %q", i, sink.recs[i], recs[i])
		}
	}
	return got, s.Stats(), host.Stats()
}

// TestGoldenConversation pins the sequence of frames a checkpointed
// push exchanges, where TestGoldenMessageBytes pins each frame's bytes:
// the handshake, the acks a window draws, the gap a lost frame opens
// and its replay, each Sync's round trip and the close. A change to the
// session that moves one frame shows here.
func TestGoldenConversation(t *testing.T) {
	got, ss, hs := conversation(t, 1)
	i := 0
	for i < len(got) && i < len(goldenConversation) && got[i] == goldenConversation[i] {
		i++
	}
	if i < len(got) || i < len(goldenConversation) {
		t.Errorf("the conversation leaves the pinned one at frame %d (%d frames, %d pinned); from there: %v",
			i, len(got), len(goldenConversation), got[i:])
	}
	if ss.Replayed != 4 || hs.Duplicates != 0 {
		t.Errorf("one lost frame: %d frames replayed, %d duplicates at the host; want 4 and 0", ss.Replayed, hs.Duplicates)
	}
}

// TestLostReplayIsReplayedAgain loses data frame 3 and then its replay
// too. The gap acks the replay draws are at the mark the first replay
// started from, so they start nothing; after one silent heartbeat
// interval the go-back replays the window once more, and the push
// completes with every record in order: two replays of frames 3–6 and
// no duplicate at the host.
func TestLostReplayIsReplayedAgain(t *testing.T) {
	_, ss, hs := conversation(t, 2)
	if ss.Replayed != 8 || ss.Timeouts != 1 || hs.Duplicates != 0 {
		t.Errorf("the replay lost too: %d frames replayed, %d timeouts, %d duplicates at the host; want 8, 1 and 0",
			ss.Replayed, ss.Timeouts, hs.Duplicates)
	}
}

// TestRepeatedSyncSendsOneMsgSync: Sync, Sync and Close with no record
// between them confirm one checkpoint, so the client sends one
// MsgSync: the second Sync and the Close's find nothing acknowledged
// since the checkpoint the first confirmed, and an empty window, so
// they send no heartbeat either.
func TestRepeatedSyncSendsOneMsgSync(t *testing.T) {
	l := transport.NewLink(transport.DefaultParams())
	host, _, _ := harness(l, &memSink{})
	conn := &sentConn{Conn: l.A()}
	s, err := Dial(func() (transport.Conn, error) { return conn, nil },
		Config{Kind: KindLogical, Session: 0x5EED, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	pushAll(t, s, testRecords(6))
	for i := 0; i < 2; i++ {
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	syncs, probes := 0, 0
	for _, raw := range conn.sent {
		f, err := transport.Decode(raw)
		switch {
		case err != nil:
		case f.Type == MsgSync:
			syncs++
		case f.Type == MsgHeartbeat && syncs > 0:
			probes++
		}
	}
	if hs := host.Stats(); syncs != 1 || hs.Syncs != 1 {
		t.Errorf("Sync, Sync, Close sent %d MsgSyncs and the host confirmed %d, want 1 and 1", syncs, hs.Syncs)
	}
	// After the checkpoint the window is empty: nothing to probe for.
	if probes != 0 {
		t.Errorf("%d heartbeats probed an empty window after the MsgSync, want 0", probes)
	}
}
