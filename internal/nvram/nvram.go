// Package nvram simulates the filer's non-volatile RAM. Following the
// paper (§2.2), NVRAM is used "only to store recent NFS operations" —
// a log of requests not yet committed by a consistency point — never as
// a disk cache. The filesystem appends serialized operations here;
// when the log passes its high-water mark the filesystem takes a
// consistency point and resets the log; and after a crash the
// surviving entries are replayed against the last consistency point.
//
// Logical restore writes pay the NVRAM logging cost on every operation;
// image restore bypasses this package entirely. That asymmetry is one
// of the paper's stated reasons physical restore is faster, and is the
// subject of ablation A1 in DESIGN.md.
package nvram

import (
	"context"
	"errors"
	"time"

	"repro/internal/sim"
)

// ErrFull is returned by Append when an entry does not fit even after
// the caller has had a chance to take a consistency point.
var ErrFull = errors.New("nvram: log full")

// Params describes the NVRAM hardware.
type Params struct {
	// Size is the log capacity in bytes (the F630 had 32 MB).
	Size int
	// PerOp is the latency of committing one log entry to NVRAM.
	PerOp time.Duration
	// PerByte is the additional cost per logged byte.
	PerByte time.Duration
}

// DefaultParams models the F630's 32 MB NVRAM.
func DefaultParams() Params {
	return Params{
		Size:    32 << 20,
		PerOp:   30 * time.Microsecond,
		PerByte: 90 * time.Nanosecond, // ~11 MB/s NVRAM commit bandwidth
	}
}

// Log is a bounded non-volatile operation log. Entries survive Crash
// (a simulated power loss) but not Reset (a consistency point).
//
// The entries are copied back to back into an arena of chunks, each
// entry inside one chunk. Reset empties the chunks but keeps them, so
// filling the log to its high-water mark never re-copies what is
// already logged, and once it has been filled there, recording an
// entry allocates nothing.
type Log struct {
	params  Params
	station *sim.Station
	chunks  [][]byte // the arena; chunks[:inUse] hold the entries since the last Reset
	inUse   int
	ents    [][]byte // every entry since the last Reset, in order, each in a chunk
	used    int      // the bytes of ents
	appends int64
}

// chunkSize is the arena's unit of growth; an entry larger than it gets
// a chunk of its own size.
const chunkSize = 1 << 20

// New creates a log. env may be nil for untimed use.
func New(env *sim.Env, p Params) *Log {
	l := &Log{params: p}
	if env != nil {
		l.station = sim.NewStation(env, "nvram", 0)
	}
	return l
}

// Append logs one serialized operation and blocks the caller's process
// until it is committed: Record, then Commit. The caller should take a
// consistency point when NeedCP reports true; Append itself only fails
// when a single entry cannot fit at all.
func (l *Log) Append(ctx context.Context, op []byte) error {
	svc, err := l.Record(op, nil)
	if err != nil {
		return err
	}
	l.Commit(ctx, svc)
	return nil
}

// Record places one serialized operation, head followed by data, in the
// log after every entry recorded before it, copying each part once, and
// returns the service time its commit costs. It takes no modelled time,
// so a caller that must keep entries in the order it applied them can
// record under its own lock and pay Commit after releasing it; the
// operation must not be acknowledged before Commit returns.
func (l *Log) Record(head, data []byte) (time.Duration, error) {
	n := len(head) + len(data)
	if l.params.Size > 0 && l.used+n > l.params.Size {
		return 0, ErrFull
	}
	e := l.take(n)
	copy(e[copy(e, head):], data)
	l.ents = append(l.ents, e)
	l.used += n
	l.appends++
	return l.params.PerOp + time.Duration(n)*l.params.PerByte, nil
}

// take returns n bytes of arena for the next entry: the rest of the
// chunk in use when they fit there, else the next chunk, made when
// there is none or the one kept is too small.
func (l *Log) take(n int) []byte {
	if l.inUse > 0 {
		c := l.chunks[l.inUse-1]
		if end := len(c) + n; end <= cap(c) {
			l.chunks[l.inUse-1] = c[:end]
			return c[len(c):end:end]
		}
	}
	if l.inUse == len(l.chunks) {
		l.chunks = append(l.chunks, nil)
	}
	if cap(l.chunks[l.inUse]) < n {
		l.chunks[l.inUse] = make([]byte, 0, max(chunkSize, n))
	}
	c := l.chunks[l.inUse][:n]
	l.chunks[l.inUse] = c
	l.inUse++
	return c[:n:n]
}

// Commit blocks the process in ctx for svc of service on the NVRAM
// station, queued behind every commit already waiting there. Untimed
// callers return at once.
func (l *Log) Commit(ctx context.Context, svc time.Duration) {
	if p := sim.ProcFrom(ctx); p != nil {
		l.station.Sync(p, svc)
	}
}

// NeedCP reports whether the log has passed its high-water mark (half
// full, mirroring WAFL's split-log scheme) and the filesystem should
// take a consistency point.
func (l *Log) NeedCP() bool {
	return l.params.Size > 0 && l.used >= l.params.Size/2
}

// Size returns the log's capacity in bytes, 0 when it is unbounded.
func (l *Log) Size() int { return l.params.Size }

// Reset discards all entries, keeping the arena's chunks for the next
// ones; called when a consistency point commits.
func (l *Log) Reset() {
	for i := range l.chunks[:l.inUse] {
		l.chunks[i] = l.chunks[i][:0]
	}
	l.inUse = 0
	l.ents = l.ents[:0]
	l.used = 0
}

// Entries returns copies of the logged operations in append order,
// which later Records and Resets leave alone. After a crash the
// filesystem replays these against the last consistency point.
func (l *Log) Entries() [][]byte {
	all := make([]byte, 0, l.used)
	out := make([][]byte, len(l.ents))
	for i, e := range l.ents {
		start := len(all)
		all = append(all, e...)
		out[i] = all[start:len(all):len(all)]
	}
	return out
}

// Used returns the bytes currently logged.
func (l *Log) Used() int { return l.used }

// Appends returns the total number of entries ever appended.
func (l *Log) Appends() int64 { return l.appends }

// Station exposes the NVRAM timing station (nil when untimed).
func (l *Log) Station() *sim.Station { return l.station }
