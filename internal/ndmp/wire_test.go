package ndmp

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net"
	"sync"
	"testing"

	"repro/internal/allocpin"
	"repro/internal/bufpool"
	"repro/internal/transport"
)

// tcpHost serves host on a loopback listener, one ServeConn per
// accepted connection. stop closes the listener, waits for every
// connection to end and returns what each ServeConn returned.
func tcpHost(t *testing.T, host *Host) (dial Dialer, stop func() []error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu      sync.Mutex
		errs    []error
		serving sync.WaitGroup
	)
	serving.Add(1)
	go func() {
		defer serving.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			serving.Add(1)
			go func() {
				defer serving.Done()
				defer c.Close()
				err := Serve(transport.NewNetConn(c), host, 0)
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
			}()
		}
	}()
	addr := ln.Addr().String()
	dial = func() (transport.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return transport.NewNetConn(c), nil
	}
	return dial, func() []error {
		ln.Close()
		serving.Wait()
		return errs
	}
}

// crcSink keeps what a check of a landed stream needs and none of the
// records: their byte count and CRC-32.
type crcSink struct {
	bytes int64
	crc   uint32
}

func (s *crcSink) WriteRecord(rec []byte) error {
	s.bytes += int64(len(rec))
	s.crc = crc32.Update(s.crc, crc32.IEEETable, rec)
	return nil
}

func (s *crcSink) NextVolume() error { return nil }

// TestPushAllocsPerMiB pins the heap objects a push over real TCP costs
// both ends together, per MiB landed: clients pushing 8 KiB records at
// once through Serve into sinks that keep only a CRC. A ceiling that
// only ratchets down. Measured 30 when recorded, all of it per session
// — the dial, the listener's accept, the two goroutines, the Hello and
// the first window's record buffers — none per record. What must not
// come back is a frame allocated per send or per receive, an ack
// encoded into a fresh buffer, a record copied into a fresh window
// buffer, or a window regrown by append (1 425 per MiB with all five).
func TestPushAllocsPerMiB(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const clients, records, size = 3, 300, 8 << 10
	rng := rand.New(rand.NewSource(1))
	streams := make([][]byte, clients)
	for i := range streams {
		streams[i] = make([]byte, records*size)
		rng.Read(streams[i])
	}
	var mu sync.Mutex
	sinks := make([]*crcSink, clients)
	host := NewHost(func(h Hello) (Sink, error) {
		s := &crcSink{}
		mu.Lock()
		sinks[h.Session-1] = s
		mu.Unlock()
		return s, nil
	})
	dial, stop := tcpHost(t, host)

	errs := make([]error, clients)
	var serveErrs []error
	mallocs := allocpin.Count(t, func() {
		var pushing sync.WaitGroup
		for i := range streams {
			pushing.Add(1)
			go func() {
				defer pushing.Done()
				s, err := Dial(dial, Config{Kind: KindLogical, Session: uint64(i + 1)})
				for r := 0; err == nil && r < records; r++ {
					err = s.WriteRecord(streams[i][r*size : (r+1)*size])
				}
				if err == nil {
					err = s.Close()
				}
				errs[i] = err
			}()
		}
		pushing.Wait()
		serveErrs = stop()
	})

	if err := errors.Join(append(errs, serveErrs...)...); err != nil {
		t.Fatal(err)
	}
	for i, s := range sinks {
		if s == nil || s.bytes != int64(len(streams[i])) || s.crc != crc32.ChecksumIEEE(streams[i]) {
			t.Fatalf("client %d: landed %+v, sent %d bytes with CRC %08x", i, s, len(streams[i]), crc32.ChecksumIEEE(streams[i]))
		}
	}
	mib := float64(clients*records*size) / (1 << 20)
	perMiB := float64(mallocs) / mib
	t.Logf("%d clients, %.1f MiB: %.0f allocations per MiB", clients, mib, perMiB)
	const ceiling = 40
	if perMiB > ceiling {
		t.Fatalf("push over TCP: %.0f allocations per MiB landed, want <= %d", perMiB, ceiling)
	}
}

// sameSizeRecords returns n distinct records of one length, so a
// recycled window buffer is always big enough and a stale byte in one
// would show as a wrong record, not a wrong length.
func sameSizeRecords(n, size int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = bytes.Repeat([]byte(fmt.Sprintf("%04d", i)), size/4)
	}
	return recs
}

// TestWindowRecyclingUnderReplay runs a small window over a link that
// drops, duplicates, reorders and corrupts frames and is cut once, so
// the window hands acknowledged records' buffers to new records while
// older ones are still being replayed. The host's copying sink must
// see every record exactly once, byte-identical and in order, and the
// session must never hold more buffers than its window has slots.
func TestWindowRecyclingUnderReplay(t *testing.T) {
	const window = 4
	l := transport.NewLink(transport.DefaultParams())
	l.Arm(transport.FaultConfig{
		Seed: 26, Drop: 0.1, Duplicate: 0.1, Reorder: 0.15, Corrupt: 0.08,
		CutAfterFrames: []int{90},
	})
	sink := &memSink{cap: 9}
	host, dial, _ := harness(l, sink)
	s, err := Dial(dial, Config{Kind: KindLogical, Session: 26, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	recs := sameSizeRecords(150, 64)
	buffers := map[*byte]bool{}
	for i := range recs {
		pushAll(t, s, recs[i:i+1])
		for _, p := range s.window {
			buffers[&p.data[0]] = true
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	assertIdentical(t, sink.recs, recs)
	if hs := host.Stats(); hs.Records != int64(len(recs)) {
		t.Fatalf("host wrote %d records, want %d: %+v", hs.Records, len(recs), hs)
	}
	ls, ss := l.Stats(), s.Stats()
	if ls.Dropped == 0 || ls.Duplicated == 0 || ls.Reordered == 0 || ls.Corrupted == 0 || ls.Cuts != 1 || ss.Replayed == 0 {
		t.Fatalf("faults never forced a replay: link %+v, session %+v", ls, ss)
	}
	if len(buffers) > window+1 {
		t.Fatalf("the window used %d record buffers, want at most %d: acknowledged ones are not recycled", len(buffers), window+1)
	}
}

// stallConn sends one data frame only up to a few payload bytes and
// then swallows everything: the dribbling peer of
// transport's mid-payload desync test, on the sending side of a push.
type stallConn struct {
	transport.Conn
	at      uint64 // the sequence of the data frame to cut short
	stalled bool
}

func (c *stallConn) Send(raw []byte) error {
	if c.stalled {
		return nil
	}
	if f, err := transport.Decode(raw); err == nil && f.Type == MsgData && f.Seq == c.at {
		c.stalled = true
		return c.Conn.Send(raw[:transport.HeaderSize+10])
	}
	return c.Conn.Send(raw)
}

// TestStaleReceiveBufferNeverReachesSink stalls a push mid-payload over
// real TCP. The host's NetConn gives up on the frame with ErrBadFrame
// while its receive buffer holds the new header, ten new payload bytes
// and the rest of the previous record; none of that may reach the
// sink. The client redials and replays, and the sink sees every record
// exactly once, in order.
func TestStaleReceiveBufferNeverReachesSink(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the payload deadline (~1s)")
	}
	sink := &memSink{}
	host := NewHost(func(Hello) (Sink, error) { return sink, nil })
	dial, stop := tcpHost(t, host)
	dials := 0
	stalling := func() (transport.Conn, error) {
		c, err := dial()
		if dials++; dials == 1 && err == nil {
			c = &stallConn{Conn: c, at: 6}
		}
		return c, err
	}
	s, err := Dial(stalling, Config{Kind: KindLogical, Session: 27, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	recs := sameSizeRecords(12, 1024)
	pushAll(t, s, recs)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	serveErrs := stop()
	assertIdentical(t, sink.recs, recs)
	if s.Stats().Reconnects == 0 {
		t.Fatal("the stalled connection was never replaced")
	}
	desynced := false
	for _, err := range serveErrs {
		desynced = desynced || errors.Is(err, transport.ErrBadFrame)
	}
	if !desynced {
		t.Fatalf("no connection ended on a mid-payload desync: %v", serveErrs)
	}
}
