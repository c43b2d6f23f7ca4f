package catalog

import (
	"bytes"
	"fmt"
	"sync"
)

// mirror is a Store over two copies of one journal, ideally on
// different media. A record is durable once it is framed in both, so
// losing either copy loses nothing acknowledged.
type mirror struct {
	mu     sync.Mutex
	copies [2]Store
	// broken is the first write that failed on either copy. The copies
	// may differ after it, so the pair acknowledges nothing more until
	// it is reopened, which repairs them.
	broken error
}

// Mirror opens a and b as a mirrored pair and returns the Store that
// writes both. Copies come back from a crash or a lost file unequal, so
// opening applies one rule (MirrorLead): the copy with the longer valid
// journal prefix is kept, a on a tie, and its torn tail, if any, is
// cut. The other copy is repaired from it: when its own valid prefix
// agrees with the kept one, only the missing suffix is appended;
// otherwise it is rewritten whole. When Mirror returns, both copies
// hold the same bytes, all of them intact frames.
//
// A record appended to a but not to b (the append failed, or the
// process died between the two writes) was never acknowledged; the
// next open keeps it, since a's journal is then the longer one.
func Mirror(a, b Store) (Store, error) {
	stores := [2]Store{a, b}
	var bufs [2][]byte
	for i, s := range stores {
		buf, err := s.ReadAll()
		if err != nil {
			return nil, fmt.Errorf("catalog: mirror: read copy %d: %w", i, err)
		}
		bufs[i] = buf
	}
	lead, valid := MirrorLead(bufs[0], bufs[1])
	keep := bufs[lead][:valid[lead]]
	for i, s := range stores {
		if err := repair(s, bufs[i], valid[i], keep); err != nil {
			return nil, fmt.Errorf("catalog: mirror: repair copy %d: %w", i, err)
		}
	}
	return &mirror{copies: stores}, nil
}

// MirrorLead is the rule a mirrored pair opens by: of two journal
// copies, the one with the longer valid ScanFrames prefix leads, a on a
// tie. It returns 0 when a leads, 1 when b does, and both valid
// prefix lengths. A longer valid prefix holds every record the shorter
// one does (appends are framed and go to both copies in order), so the
// lead is a superset of everything either copy acknowledged.
func MirrorLead(a, b []byte) (lead int, valid [2]int64) {
	valid[0], _ = ScanFrames(a, nil)
	valid[1], _ = ScanFrames(b, nil)
	if valid[1] > valid[0] {
		lead = 1
	}
	return lead, valid
}

// repair makes s, whose contents are buf with a valid prefix of n
// bytes, hold exactly keep: it keeps the prefix when keep extends it
// (for the kept copy itself, that only cuts a torn tail) and appends
// the rest, and otherwise rewrites s from empty.
func repair(s Store, buf []byte, n int64, keep []byte) error {
	if !bytes.Equal(buf[:n], keep[:n]) {
		n = 0
	}
	if n < int64(len(buf)) {
		if err := s.Truncate(n); err != nil {
			return err
		}
	}
	if n < int64(len(keep)) {
		return s.Append(keep[n:])
	}
	return nil
}

// ReadAll implements Store: after Mirror both copies hold the same
// bytes, and every later acknowledged append is in both, so it reads
// the first.
func (m *mirror) ReadAll() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.broken != nil {
		return nil, m.broken
	}
	return m.copies[0].ReadAll()
}

// Append implements Store: it writes a, then b, and acknowledges only
// when both writes succeed.
func (m *mirror) Append(p []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.write(func(s Store) error { return s.Append(p) })
}

// Truncate implements Store: it truncates both copies.
func (m *mirror) Truncate(n int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.write(func(s Store) error { return s.Truncate(n) })
}

// write applies op to a and then b. Callers hold mu.
func (m *mirror) write(op func(Store) error) error {
	if m.broken != nil {
		return m.broken
	}
	for _, s := range m.copies {
		if err := op(s); err != nil {
			m.broken = fmt.Errorf("catalog: mirror copies may differ, reopen the pair: %w", err)
			return m.broken
		}
	}
	return nil
}
