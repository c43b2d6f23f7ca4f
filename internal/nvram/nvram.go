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
	"bytes"
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
// The entries are copied back to back into one arena, which Reset
// empties but keeps: once the log has filled to its high-water mark,
// recording an entry allocates nothing.
type Log struct {
	params  Params
	station *sim.Station
	arena   []byte // every entry since the last Reset, in order
	ends    []int  // entry i is arena[ends[i-1]:ends[i]]
	appends int64
}

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
	svc, err := l.Record(op)
	if err != nil {
		return err
	}
	l.Commit(ctx, svc)
	return nil
}

// Record places one serialized operation in the log, after every entry
// recorded before it, and returns the service time its commit costs.
// It takes no modelled time, so a caller that must keep entries in the
// order it applied them can record under its own lock and pay Commit
// after releasing it; the operation must not be acknowledged before
// Commit returns.
func (l *Log) Record(op []byte) (time.Duration, error) {
	if l.params.Size > 0 && len(l.arena)+len(op) > l.params.Size {
		return 0, ErrFull
	}
	l.arena = append(l.arena, op...)
	l.ends = append(l.ends, len(l.arena))
	l.appends++
	return l.params.PerOp + time.Duration(len(op))*l.params.PerByte, nil
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
	return l.params.Size > 0 && len(l.arena) >= l.params.Size/2
}

// Reset discards all entries, keeping the arena's room for the next
// ones; called when a consistency point commits.
func (l *Log) Reset() {
	l.arena = l.arena[:0]
	l.ends = l.ends[:0]
}

// Entries returns copies of the logged operations in append order,
// which later Records and Resets leave alone. After a crash the
// filesystem replays these against the last consistency point.
func (l *Log) Entries() [][]byte {
	all := bytes.Clone(l.arena)
	out := make([][]byte, len(l.ends))
	start := 0
	for i, end := range l.ends {
		out[i] = all[start:end:end]
		start = end
	}
	return out
}

// Used returns the bytes currently logged.
func (l *Log) Used() int { return len(l.arena) }

// Appends returns the total number of entries ever appended.
func (l *Log) Appends() int64 { return l.appends }

// Station exposes the NVRAM timing station (nil when untimed).
func (l *Log) Station() *sim.Station { return l.station }
