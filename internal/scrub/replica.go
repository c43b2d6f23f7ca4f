package scrub

import (
	"context"
	"sync"

	"repro/internal/sim"
	"repro/internal/stream"
)

// Replica is a redundancy source for repair: anything able to produce
// a dump set's byte-identical stream record list. The scheduler's
// capture mirror (Store) is one; a standby tape host or a RAID-backed
// stream rebuild slot in the same way.
type Replica interface {
	// Fetch returns the set's records in stream order, or ok=false
	// when this source has no copy.
	Fetch(ctx context.Context, setID uint64) ([][]byte, bool)
}

// Store is an in-memory stream-record mirror keyed by dump set — the
// scrub-side view of the "-standby" replication the catalog journal
// already has. The scheduler tees every dump's records into it via
// CaptureSink, giving the scrubber a known-good copy to repair from.
type Store struct {
	mu   sync.Mutex
	sets map[uint64][][]byte
}

// NewStore returns an empty mirror.
func NewStore() *Store { return &Store{sets: make(map[uint64][][]byte)} }

// Put stores a set's records (the slice is retained, not copied — the
// capture path already owns fresh copies).
func (s *Store) Put(setID uint64, recs [][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sets[setID] = recs
}

// Fetch implements Replica.
func (s *Store) Fetch(_ context.Context, setID uint64) ([][]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs, ok := s.sets[setID]
	return recs, ok
}

// Drop forgets a set (after retention expires it).
func (s *Store) Drop(setID uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.sets, setID)
}

// Len reports how many sets are mirrored.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sets)
}

// CaptureSink tees every successfully written record into an in-memory
// list while forwarding to the real sink. Because the tape layer never
// lands a failed write, the captured list is byte-identical to what
// reached media — exactly what repairFrom needs.
type CaptureSink struct {
	Sink stream.Sink
	recs [][]byte
}

// WriteRecord implements stream.Sink, capturing on success only.
func (c *CaptureSink) WriteRecord(data []byte) error {
	if err := c.Sink.WriteRecord(data); err != nil {
		return err
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	c.recs = append(c.recs, cp)
	return nil
}

// NextVolume implements stream.Sink.
func (c *CaptureSink) NextVolume() error { return c.Sink.NextVolume() }

// Sync forwards the checkpoint-durability contract when the wrapped
// sink has one.
func (c *CaptureSink) Sync() error { return stream.Sync(c.Sink) }

// BindProc forwards stream.ProcBinder to the wrapped sink.
func (c *CaptureSink) BindProc(p *sim.Proc) *sim.Proc { return stream.BindProc(c.Sink, p) }

// Records returns the captured stream, in write order.
func (c *CaptureSink) Records() [][]byte { return c.recs }
