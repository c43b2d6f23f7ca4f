package sched

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/logical"
	"repro/internal/media"
	"repro/internal/physical"
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

// RecoverResult reports what a plan execution did.
type RecoverResult struct {
	Steps int
	// Files holds extracted content for single-file image recovery
	// (path → bytes); empty otherwise.
	Files map[string][]byte
	// FilesRestored counts files laid down by logical restores.
	FilesRestored int
	// BlocksRestored counts blocks written by image restores.
	BlocksRestored int
}

// Recover executes a restore plan end to end against f, pulling media
// from pool: it assembles the drive, positions each step's stream, and
// drives logical.Restore, physical.Restore or physical.Extract as the
// plan dictates. After an image recovery the filer's filesystem is
// remounted from the restored volume.
func Recover(ctx context.Context, f *core.Filer, pool *media.Pool, plan *catalog.Plan, opts RecoverOptions) (*RecoverResult, error) {
	if len(plan.Steps) == 0 {
		return nil, fmt.Errorf("sched: empty plan")
	}
	proc := sim.ProcFrom(ctx)
	drive := opts.Drive
	if drive == nil {
		d, err := assembleDrive(f, pool, plan)
		if err != nil {
			return nil, err
		}
		drive = d
	}

	res := &RecoverResult{Steps: len(plan.Steps)}
	if plan.Engine == catalog.Image {
		if plan.File != "" {
			full := newSetSource(drive, proc, plan.Steps[0].Media)
			var incs []stream.Source
			for _, step := range plan.Steps[1:] {
				incs = append(incs, newSetSource(drive, proc, step.Media))
			}
			files, err := physical.Extract(ctx, full, incs, plan.File)
			if err != nil {
				return nil, err
			}
			res.Files = files
			return res, nil
		}
		for i, step := range plan.Steps {
			src := newSetSource(drive, proc, step.Media)
			stats, err := physical.Restore(ctx, physical.RestoreOptions{
				Vol:               f.Vol,
				Source:            src,
				Costs:             f.Config.PhysCosts,
				ExpectIncremental: i > 0,
			})
			if err != nil {
				return nil, fmt.Errorf("sched: image step %d (set %d): %w", i+1, step.ID, err)
			}
			res.BlocksRestored += stats.BlocksRestored
		}
		if err := f.Remount(ctx); err != nil {
			return nil, err
		}
		return res, nil
	}

	// Logical: a full-volume chain replays every step with deletion
	// sync; a single-file plan is one pruned step restoring just the
	// path.
	if opts.Wipe && plan.File == "" {
		if err := f.Wipe(ctx); err != nil {
			return nil, err
		}
	}
	var files []string
	if plan.File != "" {
		files = []string{plan.File}
	}
	for i, step := range plan.Steps {
		src := newSetSource(drive, proc, step.Media)
		stats, err := logical.Restore(ctx, logical.RestoreOptions{
			FS:               f.FS,
			Source:           src,
			TargetDir:        opts.TargetDir,
			Files:            files,
			SyncDeletes:      i > 0,
			KernelIntegrated: true,
		})
		if err != nil {
			return nil, fmt.Errorf("sched: logical step %d (set %d): %w", i+1, step.ID, err)
		}
		res.FilesRestored += stats.FilesRestored
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
