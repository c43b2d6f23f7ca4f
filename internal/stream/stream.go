// Package stream holds the record-stream contract every layer between
// a dump engine and the medium speaks: the engines and dumpfmt write to
// a Sink and read from a Source; tape adapters, the chunk store, the
// ndmp session and the media tracker implement or wrap them. The
// optional capabilities a sink may add (Syncer, ProcBinder) live here
// too, with the one helper each that wrappers use to forward them.
package stream

import (
	"context"
	"errors"
	"io"

	"repro/internal/sim"
)

// ErrEndOfMedia is returned by a Sink when the current volume is full;
// the stream writers respond by calling NextVolume and re-emitting the
// record, which is how dumps span cartridges.
var ErrEndOfMedia = errors.New("stream: end of media")

// Sink is where a dump sends its tape records.
type Sink interface {
	// WriteRecord writes one record, returning ErrEndOfMedia when the
	// volume is full. It must not keep data after it returns: callers
	// reuse the buffer for the next record (a tape host hands over its
	// connection's receive buffer), so a sink that holds on to a record
	// copies it.
	WriteRecord(data []byte) error
	// NextVolume mounts the next volume. Called after ErrEndOfMedia.
	NextVolume() error
}

// Source supplies a stream's records to restore and the verifiers,
// io.EOF at the end. Implementations handle cartridge cycling.
type Source interface {
	// ReadRecord returns the next record. The record is lent: it is
	// read-only and valid only until the source's next ReadRecord, which
	// may reuse its buffer (a tape drive reads every record into one), so
	// a consumer that keeps a record past that copies it.
	ReadRecord() ([]byte, error)
}

// Close releases what each of srcs holds open — a stream file is an
// io.Closer, a set on tape or in a chunk store is not. Whoever was
// handed opened streams runs it when it has read what it wants.
func Close(srcs ...Source) {
	for _, s := range srcs {
		if c, ok := s.(io.Closer); ok {
			c.Close()
		}
	}
}

// Syncer is optionally implemented by sinks whose WriteRecord accepts
// records provisionally (a network session with a send window, a deep
// write-behind buffer) and by chunk media that buffer appends. Sync
// returns once everything accepted so far is durable on media: for a
// network session, once the window is drained and one MsgSync round
// trip has had the host confirm its acknowledged mark. The dump
// engines call it after emitting a checkpoint marker, before recording
// the checkpoint as reached — the checkpoint contract promises
// everything up to the marker is on tape, and a provisional accept
// alone cannot promise that.
type Syncer interface {
	Sync() error
}

// Sync makes v durable if it is a Syncer and is a no-op otherwise.
// Wrappers forward their own Sync through it.
func Sync(v any) error {
	if s, ok := v.(Syncer); ok {
		return s.Sync()
	}
	return nil
}

// ProcBinder is implemented by adapters that charge device time against
// a bound simulated process (logical.DriveSink and friends) and by the
// wrappers around them. Two processes sharing one binding would corrupt
// the simulator's handoff channels, so whoever drives the adapter from
// a different process rebinds it first.
type ProcBinder interface {
	// BindProc rebinds the adapter to p and returns the previous
	// binding.
	BindProc(p *sim.Proc) *sim.Proc
}

// BindProc rebinds v to p if it is a ProcBinder and returns the
// previous binding (nil otherwise). Wrappers forward their own
// BindProc through it.
func BindProc(v any, p *sim.Proc) *sim.Proc {
	if b, ok := v.(ProcBinder); ok {
		return b.BindProc(p)
	}
	return nil
}

// BindCtxProc rebinds v to the simulated process ctx carries, for code
// that drives v from a spawned pipeline stage, and returns the function
// restoring the previous binding. It is a no-op when v is not a
// ProcBinder or ctx is untimed. Use as:
//
//	defer stream.BindCtxProc(ctx, sink)()
func BindCtxProc(ctx context.Context, v any) func() {
	p := sim.ProcFrom(ctx)
	if p == nil {
		return func() {}
	}
	old := BindProc(v, p)
	return func() { BindProc(v, old) }
}
