package media

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/catalog"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/tape"
)

// TrackingSink wraps a drive-backed sink and records which cartridges
// the stream lands on, and at which raw record index each begins —
// the MediaRefs the catalog stores so a restore can find and position
// the media with no operator-supplied list. With a Pool, each volume
// switch skips the cartridges it has quarantined (Pool.LoadWritable).
type TrackingSink struct {
	Sink  stream.Sink
	Drive *tape.Drive
	Pool  *Pool

	refs []catalog.MediaRef
}

// bind notes the mounted cartridge as the stream's current volume.
func (t *TrackingSink) bind() {
	c := t.Drive.Loaded()
	if c == nil {
		return
	}
	if n := len(t.refs); n > 0 && t.refs[n-1].Volume == c.Label {
		return
	}
	t.refs = append(t.refs, catalog.MediaRef{Volume: c.Label, Start: int64(c.Index())})
}

// WriteRecord implements stream.Sink.
func (t *TrackingSink) WriteRecord(data []byte) error {
	if len(t.refs) == 0 {
		t.bind()
	}
	return t.Sink.WriteRecord(data)
}

// NextVolume implements stream.Sink, binding the newly mounted volume.
func (t *TrackingSink) NextVolume() error {
	if err := t.Pool.LoadWritable(t.Drive, t.Sink.NextVolume, true); err != nil {
		return err
	}
	t.bind()
	return nil
}

// Sync forwards the checkpoint-durability contract (stream.Syncer)
// when the wrapped sink has one.
func (t *TrackingSink) Sync() error { return stream.Sync(t.Sink) }

// BindProc forwards stream.ProcBinder to the wrapped sink.
func (t *TrackingSink) BindProc(p *sim.Proc) *sim.Proc { return stream.BindProc(t.Sink, p) }

// Refs returns the volumes written, in stream order.
func (t *TrackingSink) Refs() []catalog.MediaRef {
	out := make([]catalog.MediaRef, len(t.refs))
	copy(out, t.refs)
	return out
}

// Labels returns just the volume labels, in stream order.
func (t *TrackingSink) Labels() []string {
	out := make([]string, len(t.refs))
	for i, r := range t.refs {
		out[i] = r.Volume
	}
	return out
}

// LoadWritable loads cartridges into d with load until it holds one a
// set may land on: one the pool has not quarantined. With next it loads
// at least once (a volume switch); otherwise a writable cartridge
// already mounted stays. Each stacker cartridge is tried at most once,
// so a stacker of quarantined cartridges is an error, not a loop. A nil
// pool quarantines nothing.
func (p *Pool) LoadWritable(d *tape.Drive, load func() error, next bool) error {
	for tries := len(d.Stacker()); next || d.Loaded() == nil || p.quarantined(d.Loaded().Label); tries-- {
		if tries == 0 && !next && d.Loaded() != nil {
			return fmt.Errorf("media: every cartridge in drive %s is quarantined", d.Name())
		}
		if err := load(); err != nil {
			return err
		}
		next = false
	}
	return nil
}

func (p *Pool) quarantined(label string) bool {
	if p == nil {
		return false
	}
	v, ok := p.Volume(label)
	return ok && v.State == Quarantined
}

// Unmountable is the error an opener (engine.Opener) returns for a set
// whose media cannot be produced: the volumes, in set order.
type Unmountable []string

func (u Unmountable) Error() string {
	return fmt.Sprintf("media: cannot mount volume %q", []string(u))
}

// Opener is the tape world's engine.Opener, the one way from a cataloged
// set back to its bytes on cartridges, for recovery and the scrubber
// alike. Opening a set carries the cartridges its refs name from the pool
// to drive (a label the pool does not know or has no cartridge for is
// Unmountable) and hands back the set's one stream, a SetSource. A nil
// pool is a drive somebody else stocked: nothing is carried, and a label
// the drive lacks fails the mount that needs it.
func (p *Pool) Opener(drive *tape.Drive) func(context.Context, catalog.DumpSet, func(volume string, record int)) ([]stream.Source, error) {
	held := map[*tape.Cartridge]bool{}
	return func(ctx context.Context, ds catalog.DumpSet, damaged func(volume string, record int)) ([]stream.Source, error) {
		var missing Unmountable
		for i := 0; p != nil && i < len(ds.Media); i++ {
			if cart := p.carts[ds.Media[i].Volume]; cart == nil {
				missing = append(missing, ds.Media[i].Volume)
			} else if !held[cart] {
				held[cart] = true
				drive.AddCartridges(cart)
			}
		}
		if missing != nil {
			return nil, missing
		}
		return []stream.Source{&SetSource{drive: drive, ctx: ctx, proc: sim.ProcFrom(ctx), refs: ds.Media, damaged: damaged}}, nil
	}
}

// SetSource is TrackingSink's read-side dual: it feeds one dump set's
// stream back to a restore or verify by walking the MediaRefs the sink
// recorded, in order — mount the volume, rewind, space to the recorded
// start index, read records until the volume's data runs out, move to
// the next ref. The stream formats terminate themselves (TS_END / the
// image trailer), so records of a later dump set sharing the last
// cartridge are never consumed. Every record comes off the drive
// through tape.Drive.ReadData, whose fault rule applies: with a nil
// damaged callback a persistent media fault fails the read, otherwise
// the callback is told the volume and record and the walk carries on
// past it; tape time is charged to ctx's sim process.
type SetSource struct {
	drive   *tape.Drive
	ctx     context.Context
	proc    *sim.Proc
	refs    []catalog.MediaRef
	damaged func(volume string, record int)
	cur     int
	ready   bool // refs[cur] is mounted and positioned
}

// ReadRecord implements stream.Source.
func (s *SetSource) ReadRecord() ([]byte, error) {
	for ; s.cur < len(s.refs); s.cur++ {
		if ref := s.refs[s.cur]; !s.ready {
			if err := s.drive.Mount(s.proc, ref.Volume); err != nil {
				return nil, err
			}
			s.drive.Rewind(s.proc)
			if ref.Start > 0 {
				if err := s.drive.SpaceRecords(s.proc, int(ref.Start)); err != nil {
					return nil, err
				}
			}
			s.ready = true
		}
		rec, _, err := s.drive.ReadData(s.ctx, s.proc, s.damaged)
		if !errors.Is(err, tape.ErrEndOfTape) {
			return rec, err
		}
		s.ready = false
	}
	return nil, io.EOF
}
