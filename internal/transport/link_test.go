package transport

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

func mustRecv(t *testing.T, e *Endpoint) []byte {
	t.Helper()
	raw, err := e.Recv(time.Second)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	return raw
}

func TestTransportLinkDelivery(t *testing.T) {
	l := NewLink(DefaultParams())
	raw := Encode(&Frame{Type: 1, Seq: 7, Payload: []byte("hello")})
	if err := l.A().Send(raw); err != nil {
		t.Fatal(err)
	}
	got := mustRecv(t, l.B())
	f, err := Decode(got)
	if err != nil || f.Seq != 7 {
		t.Fatalf("B got %v / %v", f, err)
	}
	// Empty pipe: untimed Recv times out immediately.
	if _, err := l.B().Recv(time.Second); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
}

func TestTransportLinkHandlerEcho(t *testing.T) {
	l := NewLink(DefaultParams())
	l.B().Attach(func(raw []byte) [][]byte {
		f, err := Decode(raw)
		if err != nil {
			return nil
		}
		return [][]byte{Encode(&Frame{Type: f.Type + 1, Seq: f.Seq})}
	})
	for i := uint64(1); i <= 3; i++ {
		if err := l.A().Send(Encode(&Frame{Type: 10, Seq: i})); err != nil {
			t.Fatal(err)
		}
		f, err := Decode(mustRecv(t, l.A()))
		if err != nil || f.Type != 11 || f.Seq != i {
			t.Fatalf("echo %d: %v / %v", i, f, err)
		}
	}
}

func TestTransportLinkScheduledCutAndHeal(t *testing.T) {
	l := NewLink(DefaultParams())
	l.Arm(FaultConfig{Seed: 1, CutAfterFrames: []int{2, 4}})
	ok := func() error { return l.A().Send(Encode(&Frame{Type: 1, Seq: 1})) }
	if err := ok(); err != nil { // frame 1
		t.Fatal(err)
	}
	if err := ok(); err != nil { // frame 2: triggers the cut, lost silently
		t.Fatal(err)
	}
	if err := ok(); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("post-cut send: %v", err)
	}
	if !l.Down() || l.Stats().Cuts != 1 {
		t.Fatalf("link not down after scheduled cut: %+v", l.Stats())
	}
	l.Heal()
	if err := ok(); err != nil { // frame 3 (counter kept across heal)
		t.Fatal(err)
	}
	if err := ok(); err != nil { // frame 4: second scheduled cut
		t.Fatal(err)
	}
	if err := ok(); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("second cut not armed: %v", err)
	}
	// Only frames 1 and 3 ever arrived... and frame 1 was flushed by the
	// first cut; frame 3 by the second. In-flight loss is the point.
	if _, err := l.B().Recv(0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("in-flight frames should be lost on cut: %v", err)
	}
}

func TestTransportLinkDeterministicCorrupt(t *testing.T) {
	l := NewLink(DefaultParams())
	l.Arm(FaultConfig{Seed: 3, CorruptAtFrames: []int{2}})
	l.A().Send(Encode(&Frame{Type: 1, Seq: 1}))
	l.A().Send(Encode(&Frame{Type: 1, Seq: 2}))
	if _, err := Decode(mustRecv(t, l.B())); err != nil {
		t.Fatalf("frame 1 should be clean: %v", err)
	}
	if _, err := Decode(mustRecv(t, l.B())); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("frame 2 should be corrupted: %v", err)
	}
	if l.Stats().Corrupted != 1 {
		t.Fatalf("stats: %+v", l.Stats())
	}
}

func TestTransportLinkOneWayPartition(t *testing.T) {
	l := NewLink(DefaultParams())
	l.PartitionOneWay(false) // B -> A black hole
	l.B().Attach(nil)
	if err := l.A().Send(Encode(&Frame{Type: 1, Seq: 1})); err != nil {
		t.Fatal(err)
	}
	if raw := mustRecv(t, l.B()); raw == nil {
		t.Fatal("A->B should still deliver")
	}
	if err := l.B().Send(Encode(&Frame{Type: 2, Seq: 1})); err != nil {
		t.Fatalf("black-holed send must appear to succeed: %v", err)
	}
	if _, err := l.A().Recv(0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("B->A should be partitioned: %v", err)
	}
}

func TestTransportLinkSeededFaultsReproduce(t *testing.T) {
	run := func() (FaultStats, int) {
		l := NewLink(DefaultParams())
		l.Arm(FaultConfig{Seed: 42, Drop: 0.2, Duplicate: 0.1, Corrupt: 0.1, Reorder: 0.2})
		for i := 0; i < 200; i++ {
			l.A().Send(Encode(&Frame{Type: 1, Seq: uint64(i)}))
		}
		got := 0
		for {
			if _, err := l.B().Recv(0); err != nil {
				break
			}
			got++
		}
		return l.Stats(), got
	}
	s1, n1 := run()
	s2, n2 := run()
	if s1 != s2 || n1 != n2 {
		t.Fatalf("same seed diverged: %+v/%d vs %+v/%d", s1, n1, s2, n2)
	}
	if s1.Dropped == 0 || s1.Duplicated == 0 || s1.Corrupted == 0 || s1.Reordered == 0 {
		t.Fatalf("faults never fired: %+v", s1)
	}
	if n1 != 200-s1.Dropped+s1.Duplicated {
		t.Fatalf("arithmetic: sent 200, dropped %d, duplicated %d, got %d", s1.Dropped, s1.Duplicated, n1)
	}
}

// TestLinkRateIsThroughput: Rate is what a window of back-to-back frames
// gets through the wire together, not what each frame gets alone, and
// each direction has its own wire.
func TestLinkRateIsThroughput(t *testing.T) {
	const frames, size, rate, latency = 16, 64 << 10, 1 << 20, time.Millisecond
	env := sim.NewEnv()
	l := NewLink(Params{Latency: latency, Rate: rate})
	var delivered []time.Duration // when B saw each data frame
	var firstReply time.Duration  // when A saw B's answer to the first
	var recvErr error
	env.Spawn("a", func(p *sim.Proc) {
		l.A().Bind(p)
		l.B().Attach(func(raw []byte) [][]byte {
			delivered = append(delivered, p.Now())
			return [][]byte{Encode(&Frame{Type: 2, Seq: uint64(len(delivered))})}
		})
		for i := 1; i <= frames; i++ {
			if err := l.A().Send(Encode(&Frame{Type: 1, Seq: uint64(i), Payload: make([]byte, size)})); err != nil {
				recvErr = err
				return
			}
		}
		for i := 0; i < frames; i++ {
			if _, err := l.A().Recv(2 * time.Second); err != nil {
				recvErr = fmt.Errorf("reply %d: %w", i+1, err)
				return
			}
			if i == 0 {
				firstReply = p.Now()
			}
		}
	})
	env.Run()
	if recvErr != nil {
		t.Fatal(recvErr)
	}
	if want := time.Second + latency; delivered[frames-1] < want {
		t.Fatalf("%d × %d bytes at %d B/s delivered by %v, want no earlier than %v",
			frames, size, rate, delivered[frames-1], want)
	}
	if firstReply > delivered[0]+2*latency {
		t.Fatalf("reply to the frame delivered at %v arrived at %v: it queued behind the data",
			delivered[0], firstReply)
	}
}

func TestTransportLinkVirtualClock(t *testing.T) {
	env := sim.NewEnv()
	l := NewLink(Params{Latency: time.Millisecond})
	l.Arm(FaultConfig{Seed: 9, Stall: 1.0, StallFor: 50 * time.Millisecond})
	var elapsed, idleWait time.Duration
	var recvErr error
	env.Spawn("client", func(p *sim.Proc) {
		l.A().Bind(p)
		l.B().Attach(func(raw []byte) [][]byte { return [][]byte{raw} }) // echo, also stalled
		start := p.Now()
		if err := l.A().Send(Encode(&Frame{Type: 1, Seq: 1})); err != nil {
			recvErr = err
			return
		}
		if _, err := l.A().Recv(time.Second); err != nil {
			recvErr = err
			return
		}
		elapsed = p.Now() - start
		// An empty pipe charges exactly the deadline.
		t0 := p.Now()
		_, err := l.A().Recv(200 * time.Millisecond)
		if !errors.Is(err, ErrTimeout) {
			recvErr = fmt.Errorf("want timeout, got %v", err)
			return
		}
		idleWait = p.Now() - t0
	})
	env.Run()
	if recvErr != nil {
		t.Fatal(recvErr)
	}
	// Two stalled hops: >= 100 ms of virtual time, well under the 1 s deadline.
	if elapsed < 100*time.Millisecond || elapsed > time.Second {
		t.Fatalf("stalls not charged to the virtual clock: %v", elapsed)
	}
	if idleWait != 200*time.Millisecond {
		t.Fatalf("idle Recv charged %v, want the 200ms deadline", idleWait)
	}
}
