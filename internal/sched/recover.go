package sched

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/media"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/tape"
)

// setSource feeds one dump set's stream to a restore engine: it walks
// the set's MediaRefs in order, mounting each volume and spacing to
// the recorded start index, and reads records until the volume's data
// runs out, then moves to the next ref. The stream formats terminate
// themselves (TS_END / the image trailer), so records belonging to a
// later dump set sharing the last cartridge are never consumed.
type setSource struct {
	drive *tape.Drive
	proc  *sim.Proc
	refs  []catalog.MediaRef
	cur   int
	ready bool
	retry storage.RetryPolicy
}

func newSetSource(drive *tape.Drive, proc *sim.Proc, refs []catalog.MediaRef) *setSource {
	return &setSource{drive: drive, proc: proc, refs: refs, retry: storage.DefaultRetryPolicy()}
}

// mount cycles the drive's stacker until the wanted label is loaded.
func (s *setSource) mount(label string) error {
	if c := s.drive.Loaded(); c != nil && c.Label == label {
		return nil
	}
	tries := len(s.drive.Stacker()) + 1
	for i := 0; i < tries; i++ {
		if err := s.drive.Load(s.proc); err != nil {
			return err
		}
		if c := s.drive.Loaded(); c != nil && c.Label == label {
			return nil
		}
	}
	return fmt.Errorf("sched: volume %q is not in the restore drive", label)
}

// position mounts the current ref's volume and spaces to its start.
func (s *setSource) position() error {
	ref := s.refs[s.cur]
	if err := s.mount(ref.Volume); err != nil {
		return err
	}
	s.drive.Rewind(s.proc)
	if ref.Start > 0 {
		if err := s.drive.SpaceRecords(s.proc, int(ref.Start)); err != nil {
			return err
		}
	}
	s.ready = true
	return nil
}

// ReadRecord implements stream.Source.
func (s *setSource) ReadRecord() ([]byte, error) {
	attempt := 0
	for {
		if s.cur >= len(s.refs) {
			return nil, io.EOF
		}
		if !s.ready {
			if err := s.position(); err != nil {
				return nil, err
			}
		}
		rec, err := s.drive.ReadRecord(s.proc)
		switch {
		case err == nil:
			return rec, nil
		case errors.Is(err, tape.ErrFileMark):
			continue
		case errors.Is(err, tape.ErrEndOfTape):
			s.cur++
			s.ready = false
		case tape.IsTransientMedia(err):
			attempt++
			if attempt > s.retry.MaxRetries {
				return nil, err
			}
			if s.proc != nil {
				s.proc.Sleep(s.retry.Delay(attempt))
			}
		default:
			return nil, err
		}
	}
}

// RecoverOptions tunes plan execution.
type RecoverOptions struct {
	// Drive, when set, is the restore drive to use; the needed
	// cartridges must be reachable in its stacker. When nil, a
	// dedicated restore drive is assembled from the pool's cartridges
	// — the operator carrying the plan's tapes to a free drive.
	Drive *tape.Drive
	// TargetDir grafts a logical restore somewhere other than the
	// filesystem root.
	TargetDir string
	// Wipe reformats the filer's volume before a full-volume logical
	// recovery (disaster recovery semantics). Image recovery always
	// overwrites the volume wholesale.
	Wipe bool
}

// Recover executes a restore plan end to end against f, pulling media
// from pool: it assembles the drive, positions each step's stream, and
// hands the plan to the engine-neutral executor. After an image
// recovery the filer's filesystem is remounted from the restored
// volume.
func Recover(ctx context.Context, f *core.Filer, pool *media.Pool, plan *catalog.Plan, opts RecoverOptions) (*engine.Restored, error) {
	proc := sim.ProcFrom(ctx)
	drive := opts.Drive
	if drive == nil {
		d, err := assembleDrive(f, pool, plan)
		if err != nil {
			return nil, err
		}
		drive = d
	}
	wholeVolume := plan.File == ""
	if opts.Wipe && wholeVolume && plan.Engine == catalog.Logical {
		if err := f.Wipe(ctx); err != nil {
			return nil, err
		}
	}
	res, err := engine.Recover(ctx, plan,
		engine.Target{FS: f.FS, Dir: opts.TargetDir, Vol: f.Vol, Costs: f.Config.PhysCosts},
		func(step catalog.DumpSet) ([]stream.Source, error) {
			// On tape a set is one stream, however many volumes it spans.
			return []stream.Source{newSetSource(drive, proc, step.Media)}, nil
		}, nil)
	if err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	if wholeVolume && plan.Engine == catalog.Image {
		if err := f.Remount(ctx); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// assembleDrive builds a restore drive loaded with the plan's media,
// in mount order, from the pool's cartridge bindings.
func assembleDrive(f *core.Filer, pool *media.Pool, plan *catalog.Plan) (*tape.Drive, error) {
	d := tape.NewDrive(f.Env, f.Config.Name+"/restore", f.Config.TapeParams)
	for _, label := range plan.Media() {
		v, ok := pool.Volume(label)
		if !ok || v.Cart == nil {
			return nil, fmt.Errorf("sched: plan needs volume %q, which the pool cannot mount", label)
		}
		d.AddCartridges(v.Cart)
	}
	return d, nil
}
