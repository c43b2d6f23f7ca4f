package media

import (
	"repro/internal/catalog"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/tape"
)

// TrackingSink wraps a drive-backed sink and records which cartridges
// the stream lands on, and at which raw record index each begins —
// the MediaRefs the catalog stores so a restore can find and position
// the media with no operator-supplied list.
type TrackingSink struct {
	Sink  stream.Sink
	Drive *tape.Drive

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
	if err := t.Sink.NextVolume(); err != nil {
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
