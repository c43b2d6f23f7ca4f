package sched

import (
	"context"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/media"
	"repro/internal/tape"
	"repro/internal/wafl"
)

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
// from pool: it assembles the drive and hands the plan, the pool's
// opener and the optional wipe to the engine-neutral executor, which
// opens every step before it reformats or applies anything. After an
// image recovery the filer's filesystem is remounted from the restored
// volume.
func Recover(ctx context.Context, f *core.Filer, pool *media.Pool, plan *catalog.Plan, opts RecoverOptions) (*engine.Restored, error) {
	drive := opts.Drive
	if drive == nil {
		drive = tape.NewDrive(f.Env, f.Config.Name+"/restore", f.Config.TapeParams)
	} else {
		pool = nil // the drive holds what it holds
	}
	wholeVolume := plan.File == ""
	t := engine.Target{FS: f.FS, Dir: opts.TargetDir, Vol: f.Vol, Costs: f.Config.PhysCosts}
	if opts.Wipe && wholeVolume && plan.Engine == catalog.Logical {
		t.Wipe = func(ctx context.Context) (*wafl.FS, error) { err := f.Wipe(ctx); return f.FS, err }
	}
	res, err := engine.Recover(ctx, plan, t, pool.Opener(drive), nil)
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
