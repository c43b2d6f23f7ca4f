// Package sched runs backup level schedules against a core.Filer on
// the simulated clock, recording every completed run in the backup
// catalog and committing the media it consumed to the media pool — the
// nightly-cron layer of the paper's operational story. Its companion
// half is the recover executor: given a plan computed by the catalog,
// it mounts and positions the right cartridges and drives the existing
// logical and physical restore paths end to end, with no
// operator-assembled media list.
package sched

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/logical"
	"repro/internal/media"
	"repro/internal/obs"
	"repro/internal/physical"
	"repro/internal/sim"
	"repro/internal/tape"
)

// Policy maps a run number (0-based) to an incremental level.
type Policy interface {
	Level(run int) int
	String() string
}

// BSDLadder is the classic BSD dump schedule: a level 0, then a
// repeating ladder chosen so each dump's base is recent and restores
// need few tapes (dump(8) suggests 3 2 5 4 7 6 9 8).
type BSDLadder struct {
	Ladder []int
}

// DefaultLadder returns the dump(8) manual's suggested sequence.
func DefaultLadder() BSDLadder { return BSDLadder{Ladder: []int{3, 2, 5, 4, 7, 6, 9, 8}} }

// Level implements Policy.
func (l BSDLadder) Level(run int) int {
	if run <= 0 {
		return 0
	}
	lad := l.Ladder
	if len(lad) == 0 {
		lad = DefaultLadder().Ladder
	}
	return lad[(run-1)%len(lad)]
}

func (l BSDLadder) String() string { return "bsd-ladder" }

// TowerOfHanoi is the Tower-of-Hanoi schedule: run n (1-based) dumps
// at level Levels minus the largest power of two dividing n, so each
// media set is reused at exponentially spaced intervals — deep history
// with few tapes.
type TowerOfHanoi struct {
	// Levels is the deepest level used (default 5).
	Levels int
}

// Level implements Policy.
func (t TowerOfHanoi) Level(run int) int {
	if run <= 0 {
		return 0
	}
	levels := t.Levels
	if levels <= 0 {
		levels = 5
	}
	if levels > logical.MaxLevel {
		levels = logical.MaxLevel
	}
	lvl := levels - bits.TrailingZeros(uint(run))
	if lvl < 1 {
		lvl = 1
	}
	return lvl
}

func (t TowerOfHanoi) String() string { return "tower-of-hanoi" }

const (
	// schedDrive is the tape drive index the schedule writes to.
	schedDrive = 0
	// interval is the virtual time between runs when simulating:
	// nightly dumps.
	interval = 24 * time.Hour
	// snapPrefix names the schedule's snapshots.
	snapPrefix = "sched"
)

// Config wires a schedule to a filer, catalog and media pool.
type Config struct {
	Filer   *core.Filer
	Catalog *catalog.Catalog
	Pool    *media.Pool
	// Engine picks the dump strategy for every run.
	Engine catalog.Engine
	// Policy maps run numbers to levels (default: BSD ladder).
	Policy Policy
	// FSID keys the dump-date history (default: the filer's name).
	FSID string
	// Retention, when set, is applied after every run, followed by a
	// reclamation pass.
	Retention media.RetentionPolicy
	// Churn, when set, mutates the filesystem before each run after
	// the first — the users the schedule is protecting.
	Churn func(ctx context.Context, run int) error
}

// RunResult describes one completed scheduled dump.
type RunResult struct {
	Run     int
	Level   int
	SetID   uint64
	Date    int64
	Bytes   int64
	Media   []string
	Expired []uint64 // sets expired by retention after this run
}

// imageBase tracks the snapshot a future incremental can base on, per
// level — the image engine's analogue of /etc/dumpdates.
type imageBase struct {
	snap string
	gen  uint64
	date int64
}

// Scheduler executes runs. Create with New, drive with RunN (which
// handles the simulated clock) or step with RunOne from inside a
// simulation process.
type Scheduler struct {
	cfg   Config
	bases map[int]imageBase // image engine: level → base candidate
	runs  int
}

// New validates cfg and returns a scheduler.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Filer == nil || cfg.Catalog == nil || cfg.Pool == nil {
		return nil, fmt.Errorf("sched: filer, catalog and pool are required")
	}
	if cfg.Engine != catalog.Logical && cfg.Engine != catalog.Image {
		return nil, fmt.Errorf("sched: engine must be logical or image")
	}
	if cfg.Policy == nil {
		cfg.Policy = DefaultLadder()
	}
	if cfg.FSID == "" {
		cfg.FSID = cfg.Filer.Config.Name
	}
	if len(cfg.Filer.Tapes) <= schedDrive {
		return nil, fmt.Errorf("sched: filer has no tape drive %d", schedDrive)
	}
	return &Scheduler{cfg: cfg, bases: make(map[int]imageBase)}, nil
}

// RunN executes n scheduled runs. On a simulating filer it spawns a
// simulation process, sleeps interval of virtual time between runs,
// and drives the event loop; untimed it just loops. Each run's dump is
// recorded in the catalog before RunN moves on — a crash between runs
// loses nothing.
func (s *Scheduler) RunN(ctx context.Context, n int) ([]RunResult, error) {
	f := s.cfg.Filer
	if f.Env != nil && sim.ProcFrom(ctx) == nil {
		var results []RunResult
		var runErr error
		f.Env.Spawn("sched/"+s.cfg.Policy.String(), func(p *sim.Proc) {
			results, runErr = s.runLoop(core.Proc(ctx, p), n)
		})
		f.Env.Run()
		return results, runErr
	}
	return s.runLoop(ctx, n)
}

func (s *Scheduler) runLoop(ctx context.Context, n int) ([]RunResult, error) {
	var results []RunResult
	for i := 0; i < n; i++ {
		res, err := s.RunOne(ctx)
		if err != nil {
			return results, err
		}
		results = append(results, *res)
	}
	return results, nil
}

// RunOne executes the next scheduled run: churn, advance the clock,
// dump at the policy's level, land the set in the catalog (read back,
// with its file index), and commit the media to the pool.
func (s *Scheduler) RunOne(ctx context.Context) (*RunResult, error) {
	run := s.runs
	f := s.cfg.Filer
	ctx, span := obs.Start(ctx, fmt.Sprintf("sched.run%d", run))
	defer span.End()
	span.SetAttr("engine", s.cfg.Engine.String())
	if run > 0 && s.cfg.Churn != nil {
		if err := s.cfg.Churn(ctx, run); err != nil {
			return nil, fmt.Errorf("sched: churn before run %d: %w", run, err)
		}
	}
	if p := sim.ProcFrom(ctx); p != nil {
		p.Sleep(interval)
	}
	// Mount media a set may land on: the pool's cartridges past any it
	// has quarantined, as at every volume switch (runJob's TrackingSink).
	d := f.Tapes[schedDrive]
	if err := s.cfg.Pool.LoadWritable(d, func() error { return d.Load(sim.ProcFrom(ctx)) }, false); err != nil {
		return nil, fmt.Errorf("sched: mounting media for run %d: %w", run, err)
	}
	level := s.cfg.Policy.Level(run)

	var res *RunResult
	var err error
	if s.cfg.Engine == catalog.Logical {
		res, err = s.logicalRun(ctx, run, level)
	} else {
		res, err = s.imageRun(ctx, run, level)
	}
	if err != nil {
		return nil, err
	}
	s.runs++

	now := f.FS.Clock()
	if s.cfg.Retention != nil {
		expired, err := s.cfg.Pool.ApplyRetention(s.cfg.Retention, s.cfg.FSID, s.cfg.Engine, now)
		if err != nil {
			return nil, err
		}
		res.Expired = expired
		if _, err := s.cfg.Pool.Reclaim(now); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// logicalRun performs one scheduled logical dump.
func (s *Scheduler) logicalRun(ctx context.Context, run, level int) (*RunResult, error) {
	f := s.cfg.Filer
	snap := fmt.Sprintf("%s.l%d.run%d", snapPrefix, level, run)
	if err := f.FS.CreateSnapshot(ctx, snap); err != nil {
		return nil, err
	}
	defer f.FS.DeleteSnapshot(ctx, snap)
	view, err := f.FS.SnapshotView(snap)
	if err != nil {
		return nil, err
	}
	return s.runJob(ctx, run, level, snap, engine.NewLogical(logical.DumpOptions{
		View:      view,
		Level:     level,
		Dates:     s.cfg.Catalog.DumpDates(),
		FSID:      s.cfg.FSID,
		Label:     snap,
		ReadAhead: 16,
	}))
}

// dumpError is a runJob failure of the dump itself: nothing about the
// set has been recorded yet.
type dumpError struct{ error }

func (e dumpError) Unwrap() error { return e.error }

// runJob dumps job to the schedule's drive and records the completed
// set everywhere it is accounted for: the catalog (engine.Land, reading
// it back on a verify drive built as Recover builds its restore drive)
// and the media pool. A set found damaged fails the run once its media
// is committed.
func (s *Scheduler) runJob(ctx context.Context, run, level int, snap string, job *engine.Dump) (*RunResult, error) {
	f := s.cfg.Filer
	track := &media.TrackingSink{Sink: f.Sink(ctx, schedDrive), Drive: f.Tapes[schedDrive], Pool: s.cfg.Pool}
	if err := job.To(ctx, track); err != nil {
		return nil, dumpError{fmt.Errorf("sched: run %d level %d: %w", run, level, err)}
	}
	f.Tapes[schedDrive].Flush(sim.ProcFrom(ctx))

	ds := job.Set()
	ds.FSID, ds.Snap, ds.Media = s.cfg.FSID, snap, track.Refs()
	if ds.Engine == catalog.Image {
		// Generations order image sets, but retention ages every set on
		// the filesystem clock, so a scheduled one is dated by it.
		ds.Date = f.FS.Clock()
	}
	verify := tape.NewDrive(f.Env, f.Config.Name+"/verify", f.Config.TapeParams)
	id, damage, err := engine.Land(ctx, s.cfg.Catalog, ds, nil, s.cfg.Pool.Opener(verify))
	if err != nil {
		return nil, err
	}
	if err := s.cfg.Pool.CommitSet(id, track.Labels(), ds.Date); err != nil {
		return nil, err
	}
	if damage != "" {
		return nil, fmt.Errorf("sched: run %d: set %d failed verification on landing, cataloged damaged: %s", run, id, damage)
	}
	return &RunResult{Run: run, Level: level, SetID: id, Date: ds.Date,
		Bytes: ds.Bytes, Media: track.Labels()}, nil
}

// imageRun performs one scheduled image dump. Level semantics mirror
// dumpdates: a level-L dump bases on the newest prior run at a level
// below L, whose snapshot is retained for exactly that purpose; deeper
// levels' snapshots are dropped, as a new base invalidates them.
func (s *Scheduler) imageRun(ctx context.Context, run, level int) (*RunResult, error) {
	f := s.cfg.Filer
	snap := fmt.Sprintf("%s.i%d.run%d", snapPrefix, level, run)
	if err := f.FS.CreateSnapshot(ctx, snap); err != nil {
		return nil, err
	}

	var base imageBase
	for l, b := range s.bases {
		if l < level && b.date > base.date {
			base = b
		}
	}

	job := engine.NewImage(physical.DumpOptions{
		FS:           f.FS,
		Vol:          f.Vol,
		SnapName:     snap,
		BaseSnapName: base.snap,
		Costs:        f.Config.PhysCosts,
	})
	res, err := s.runJob(ctx, run, level, snap, job)
	if err != nil {
		// Once the set is in the catalog its snapshot stays, whatever
		// failed after: a later image dump may base on it.
		if errors.As(err, new(dumpError)) {
			f.FS.DeleteSnapshot(ctx, snap)
		}
		return nil, err
	}

	// Update the base table like DumpDates.Record: this level's
	// snapshot replaces its slot and invalidates deeper levels.
	for l, b := range s.bases {
		if l >= level {
			f.FS.DeleteSnapshot(ctx, b.snap)
			delete(s.bases, l)
		}
	}
	s.bases[level] = imageBase{snap: snap, gen: job.ImageStats.Gen, date: res.Date}
	return res, nil
}
