package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/logical"
	"repro/internal/nvram"
	"repro/internal/obs"
	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tape"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// rigConfig is everything a volume workload's inputs depend on.
type rigConfig struct {
	simulate  bool // virtual clock (sim.Env) or the real process
	seed      int64
	dataMB    int // nominal tree size handed to workload.Generate
	meanFile  int // mean file size handed to workload.Generate
	ageRounds int // workload.Age rounds after generation
	days      int // >0: that many daily snapshots, one light Age round between
	drives    int
	digest    bool // restores are verified by tree digest: take the source's
	// wrapDev, set only on traced host passes, interposes the
	// benchmark's timing wrapper between wafl and raid.
	wrapDev func(storage.Device) storage.Device
}

// rig is one assembled filer with generated, aged and snapshotted
// inputs: the paper's F630 shape (3 RAID-4 groups × 10 data disks,
// DLT-7000 drives, 32 MB NVRAM) at four times the data size. It is
// core.NewFiler spelled out, because the traced pass has to put a
// wrapper between wafl and raid and core.Filer has no seam for that.
type rig struct {
	cfg   rigConfig
	fc    core.FilerConfig
	env   *sim.Env     // nil on the host clock
	cpu   *sim.Station // nil on the host clock
	vol   *raid.Volume
	dev   storage.Device // what wafl mounts: vol, or the wrapper around it
	nv    *nvram.Log
	fs    *wafl.FS
	tapes []*tape.Drive
	dates *logical.DumpDates
	reg   *obs.Registry
	epoch time.Time
	built time.Duration // wall time of the set-up: one sample of setup_s

	snaps     []string                  // snapshots to dump, oldest first
	userBytes []int64                   // per snapshot: UsedBlocks × 4 KiB when it was taken
	want      map[string]workload.Entry // newest snapshot's tree digest, if cfg.digest
	words     []uint32                  // newest snapshot's block-map words, for the physical compare
}

// buildRig generates, ages and snapshots the inputs for cfg, then —
// outside the set-up time it records — takes the tree digest restores
// will be held to.
func buildRig(ctx context.Context, cfg rigConfig) (*rig, error) {
	fc := core.DefaultConfig()
	fc.Name = "bench"
	fc.TapeDrives = cfg.drives
	fc.BlocksPerDisk = cfg.dataMB << 20 / wafl.BlockSize * 4 / (fc.RaidGroups * fc.DataDisksPerGroup)
	if fc.BlocksPerDisk < 64 {
		fc.BlocksPerDisk = 64
	}
	r := &rig{cfg: cfg, dates: logical.NewDumpDates(), reg: obs.NewRegistry(), epoch: time.Now()}
	if cfg.simulate {
		r.env = sim.NewEnv()
		r.cpu = sim.NewStation(r.env, fc.Name+"/cpu", 0)
		fc.FSCosts.CPU = r.cpu
		fc.PhysCosts.CPU = r.cpu
	}
	r.fc = fc
	var err error
	if r.vol, err = r.newVolume(fc.Name + "/vol"); err != nil {
		return nil, err
	}
	r.vol.RegisterMetrics(r.reg)
	r.dev = r.vol
	if cfg.wrapDev != nil {
		r.dev = cfg.wrapDev(r.vol)
	}
	r.nv = nvram.New(r.env, fc.NVRAMParams)
	if r.fs, err = wafl.Mkfs(ctx, r.dev, r.nv, r.fsOptions()); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.drives; i++ {
		d := tape.NewDrive(r.env, fmt.Sprintf("%s/tape%d", fc.Name, i), fc.TapeParams)
		for c := 0; c < fc.CartridgesPerDrive; c++ {
			d.AddCartridges(tape.NewCartridge(fmt.Sprintf("t%d-c%d", i, c)))
		}
		d.RegisterMetrics(r.reg)
		r.tapes = append(r.tapes, d)
	}
	if err := r.populate(ctx); err != nil {
		return nil, err
	}
	r.built = time.Since(r.epoch)
	if cfg.digest {
		view, err := r.fs.SnapshotView(r.lastSnap())
		if err != nil {
			return nil, err
		}
		if r.want, err = workload.TreeDigest(ctx, view, "/"); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *rig) newVolume(name string) (*raid.Volume, error) {
	return raid.Build(r.env, name, raid.Config{
		Groups:            r.fc.RaidGroups,
		DataDisksPerGroup: r.fc.DataDisksPerGroup,
		BlocksPerDisk:     r.fc.BlocksPerDisk,
		DiskParams:        r.fc.DiskParams,
	})
}

func (r *rig) fsOptions() wafl.Options {
	return wafl.Options{Costs: r.fc.FSCosts, Env: r.env}
}

// treeSeed fixes the shape of the reference volume: the tree
// workload.Generate lays out and every round of churn. The run's seed
// then rewrites every third file in place with bytes of its own, same
// lengths, so no two seeds dump the same data, but sizes, names and
// block layout — everything the modelled time depends on — are
// parameters of the workload and not a draw. With the tree itself
// drawn from the seed, which files landed in the slowest of four shards
// moved logical-4d's modelled dump time by a quarter (24.0–33.4 GB/h
// over twelve seeds), and even forty seed-drawn file changes on a fixed
// tree moved it by an eighth: a gate that wide could not see ROADMAP
// item 2's 4-drive collapse.
const treeSeed = 1998

// populate writes the tree untimed (no sim process in ctx), ages it,
// gives it the seed's contents and takes the snapshots the dumps read.
func (r *rig) populate(ctx context.Context) error {
	meanFileSize := r.cfg.meanFile
	files := r.cfg.dataMB << 20 / meanFileSize
	paths, err := workload.Generate(ctx, r.fs, workload.Spec{
		Seed: treeSeed, Files: files, DirFanout: 12, MeanFileSize: meanFileSize,
		Symlinks: files / 40, Hardlinks: files / 60,
	})
	if err != nil {
		return err
	}
	age := func(seed int64, rounds, churn int) error {
		paths, err = workload.Age(ctx, r.fs, paths, workload.AgeSpec{
			Seed: seed, Rounds: rounds, ChurnPerRound: churn, MeanFileSize: meanFileSize,
		})
		return err
	}
	if r.cfg.ageRounds > 0 {
		if err := age(treeSeed+1, r.cfg.ageRounds, files/3); err != nil {
			return err
		}
	}
	state := uint64(r.cfg.seed)
	for i := 0; i < len(paths); i += 3 {
		ino, err := r.fs.ActiveView().Stat(ctx, paths[i])
		if err != nil {
			return err
		}
		data := make([]byte, ino.Size)
		splitmix(&state, data)
		if _, err := r.fs.WriteFile(ctx, paths[i], data, 0644); err != nil {
			return err
		}
	}
	snap := func(name string) error {
		if err := r.fs.CP(ctx); err != nil {
			return err
		}
		if err := r.fs.CreateSnapshot(ctx, name); err != nil {
			return err
		}
		r.snaps = append(r.snaps, name)
		r.userBytes = append(r.userBytes, int64(r.fs.UsedBlocks())*wafl.BlockSize)
		return nil
	}
	if r.cfg.days == 0 {
		return snap("dump")
	}
	for day := 1; day <= r.cfg.days; day++ {
		if day > 1 {
			// A mostly-unchanged volume: ~2% of the files churn per day.
			if err := age(treeSeed+1+int64(day), 1, 1+files/50); err != nil {
				return err
			}
		}
		if err := snap(fmt.Sprintf("day%d", day)); err != nil {
			return err
		}
	}
	return nil
}

func (r *rig) lastSnap() string { return r.snaps[len(r.snaps)-1] }

func (r *rig) totalUserBytes() int64 {
	var n int64
	for _, b := range r.userBytes {
		n += b
	}
	return n
}

// lastUserBytes is the newest snapshot's user bytes: what a restore
// brings back.
func (r *rig) lastUserBytes() int64 { return r.userBytes[len(r.userBytes)-1] }

// snapWords is the newest snapshot's frozen block map: a non-zero word
// marks a block in the snapshot's world, the set a physical dump
// carries. Read once; the source volume never changes after set-up.
func (r *rig) snapWords(ctx context.Context) ([]uint32, error) {
	if r.words == nil {
		var err error
		if r.words, err = r.fs.SnapshotBlockMapWords(ctx, r.lastSnap()); err != nil {
			return nil, err
		}
	}
	return r.words, nil
}

// wipe reformats the volume: the disaster a full logical restore
// starts from. The snapshots go with it.
func (r *rig) wipe(ctx context.Context) error {
	r.nv.Reset()
	fs, err := wafl.Mkfs(ctx, r.dev, r.nv, r.fsOptions())
	if err != nil {
		return err
	}
	r.fs = fs
	return nil
}

// cartridges lists every cartridge of every drive, loaded or stacked.
func (r *rig) cartridges() []*tape.Cartridge {
	var all []*tape.Cartridge
	for _, d := range r.tapes {
		if c := d.Loaded(); c != nil {
			all = append(all, c)
		}
		all = append(all, d.Stacker()...)
	}
	return all
}

// eraseTapes blanks every cartridge so each pass writes the same tape
// from the same starting state.
func (r *rig) eraseTapes() {
	for _, c := range r.cartridges() {
		c.Erase()
	}
}

// tapeBytes sums the data bytes on every cartridge.
func (r *rig) tapeBytes() int64 {
	var n int64
	for _, c := range r.cartridges() {
		n += c.Bytes()
	}
	return n
}

// now reads the rig's clock: virtual under a sim.Env, wall otherwise.
func (r *rig) now() time.Duration {
	if r.env != nil {
		return r.env.Now()
	}
	return time.Since(r.epoch)
}

// procs runs fns as concurrent sim processes and drains the event
// queue; on the host clock it runs them one after the other on the
// calling goroutine (wafl is single-threaded outside the simulator).
func (r *rig) procs(ctx context.Context, name string, fns ...func(ctx context.Context) error) error {
	if r.env == nil {
		for _, fn := range fns {
			if err := fn(ctx); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(fns))
	for i, fn := range fns {
		r.env.Spawn(fmt.Sprintf("%s%d", name, i), func(p *sim.Proc) {
			errs[i] = fn(sim.WithProc(ctx, p))
		})
	}
	r.env.Run()
	return errors.Join(errs...)
}

// interval brackets the part of a pass that counts. The host protocol
// passes a *meter; the virtual pass a *virtSpan on the rig's clock.
type interval interface {
	start()
	stop()
}

// virtSpan accumulates virtual time between start and stop.
type virtSpan struct {
	r     *rig
	t0    time.Duration
	total time.Duration
}

func (v *virtSpan) start() { v.t0 = v.r.now() }
func (v *virtSpan) stop()  { v.total += v.r.now() - v.t0 }
