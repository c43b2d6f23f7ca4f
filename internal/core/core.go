// Package core assembles the paper's system under test: a filer — CPU,
// NVRAM, a RAID volume of simulated disks, a WAFL filesystem, and a
// bank of tape drives — together with both backup engines. It is the
// top-level API the examples, the CLI and the benchmark harness build
// on; the pieces live in their own packages (internal/wafl,
// internal/logical, internal/physical, …) and remain usable on their
// own.
package core

import (
	"context"
	"fmt"

	"repro/internal/logical"
	"repro/internal/nvram"
	"repro/internal/physical"
	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tape"
	"repro/internal/vdev"
	"repro/internal/wafl"
)

// FilerConfig sizes a filer. Zero fields are completed by NewFiler.
type FilerConfig struct {
	// Name labels the filer's resources.
	Name string
	// Simulate attaches a discrete-event clock: all device and CPU
	// costs then accrue virtual time. Off, everything is untimed
	// (functional testing mode).
	Simulate bool

	// Volume geometry (the paper's home volume: 3 groups × 10 data
	// disks; rlse: 2 × 10).
	RaidGroups        int
	DataDisksPerGroup int
	BlocksPerDisk     int
	DiskParams        vdev.Params

	// Tape bank.
	TapeDrives         int
	CartridgesPerDrive int
	TapeParams         tape.Params

	// NVRAM.
	NVRAMParams nvram.Params

	// Cost models. CPU stations are filled in by NewFiler when
	// simulating.
	FSCosts   wafl.Costs
	PhysCosts physical.Costs

	// CacheBlocks sizes the filesystem's buffer cache (0 = default).
	CacheBlocks int

	// Env and CPU, when set together with Simulate, attach the filer
	// to an existing environment and CPU station — how multi-volume
	// experiments model one filer head serving several volumes.
	Env *sim.Env
	CPU *sim.Station
}

// DefaultConfig returns a laptop-scale filer shaped like the paper's
// F630: 500 MHz-class CPU costs, 10 MB/s disks in RAID-4 groups,
// DLT-7000 tapes, 32 MB NVRAM.
func DefaultConfig() FilerConfig {
	return FilerConfig{
		Name:               "filer",
		RaidGroups:         3,
		DataDisksPerGroup:  10,
		BlocksPerDisk:      4096, // 16 MB per disk; scale per experiment
		DiskParams:         vdev.DefaultParams(),
		TapeDrives:         1,
		CartridgesPerDrive: 8,
		TapeParams:         tape.DefaultParams(),
		NVRAMParams:        nvram.DefaultParams(),
		FSCosts:            wafl.DefaultCosts(),
		PhysCosts:          physical.DefaultCosts(),
	}
}

// Filer is an assembled system.
type Filer struct {
	Config FilerConfig
	Env    *sim.Env     // nil unless simulating
	CPU    *sim.Station // nil unless simulating
	Vol    *raid.Volume
	NVRAM  *nvram.Log
	FS     *wafl.FS
	Tapes  []*tape.Drive
	Dates  *logical.DumpDates
}

// NewFiler builds and formats a filer.
func NewFiler(ctx context.Context, cfg FilerConfig) (*Filer, error) {
	if cfg.Name == "" {
		cfg.Name = "filer"
	}
	if cfg.RaidGroups == 0 {
		cfg.RaidGroups = 1
	}
	if cfg.DataDisksPerGroup == 0 {
		cfg.DataDisksPerGroup = 4
	}
	if cfg.BlocksPerDisk == 0 {
		cfg.BlocksPerDisk = 4096
	}
	if cfg.TapeDrives == 0 {
		cfg.TapeDrives = 1
	}
	if cfg.CartridgesPerDrive == 0 {
		cfg.CartridgesPerDrive = 8
	}

	f := &Filer{Config: cfg, Dates: logical.NewDumpDates()}
	if cfg.Simulate {
		f.Env = cfg.Env
		f.CPU = cfg.CPU
		if f.Env == nil {
			f.Env = sim.NewEnv()
		}
		if f.CPU == nil {
			f.CPU = sim.NewStation(f.Env, cfg.Name+"/cpu", 0)
		}
		cfg.FSCosts.CPU = f.CPU
		cfg.PhysCosts.CPU = f.CPU
	}
	var err error
	f.Vol, err = raid.Build(f.Env, cfg.Name+"/vol", raid.Config{
		Groups:            cfg.RaidGroups,
		DataDisksPerGroup: cfg.DataDisksPerGroup,
		BlocksPerDisk:     cfg.BlocksPerDisk,
		DiskParams:        cfg.DiskParams,
	})
	if err != nil {
		return nil, err
	}
	f.NVRAM = nvram.New(f.Env, cfg.NVRAMParams)
	f.FS, err = wafl.Mkfs(ctx, f.Vol, f.NVRAM, wafl.Options{
		Costs:       cfg.FSCosts,
		Env:         f.Env,
		CacheBlocks: cfg.CacheBlocks,
	})
	if err != nil {
		return nil, err
	}
	f.Config = cfg
	for i := 0; i < cfg.TapeDrives; i++ {
		d := tape.NewDrive(f.Env, fmt.Sprintf("%s/tape%d", cfg.Name, i), cfg.TapeParams)
		for c := 0; c < cfg.CartridgesPerDrive; c++ {
			d.AddCartridges(tape.NewCartridge(fmt.Sprintf("%s-t%d-c%d", cfg.Name, i, c)))
		}
		f.Tapes = append(f.Tapes, d)
	}
	return f, nil
}

// Wipe reformats the filer's volume with a fresh, empty filesystem —
// the disaster-recovery starting point for a full restore.
func (f *Filer) Wipe(ctx context.Context) error {
	f.NVRAM.Reset()
	fs, err := wafl.Mkfs(ctx, f.Vol, f.NVRAM, wafl.Options{
		Costs:       f.Config.FSCosts,
		Env:         f.Env,
		CacheBlocks: f.Config.CacheBlocks,
	})
	if err != nil {
		return err
	}
	f.FS = fs
	return nil
}

// Remount re-reads the on-disk filesystem state into a fresh FS — the
// step after an image restore wrote blocks underneath the mounted
// filesystem.
func (f *Filer) Remount(ctx context.Context) error {
	f.NVRAM.Reset()
	fs, err := wafl.Mount(ctx, f.Vol, f.NVRAM, wafl.Options{
		Costs:       f.Config.FSCosts,
		Env:         f.Env,
		CacheBlocks: f.Config.CacheBlocks,
	})
	if err != nil {
		return err
	}
	f.FS = fs
	return nil
}

// Sink returns a dump sink on tape drive i for the process in ctx.
func (f *Filer) Sink(ctx context.Context, drive int) *logical.DriveSink {
	return &logical.DriveSink{Drive: f.Tapes[drive], Proc: sim.ProcFrom(ctx)}
}

// Source returns a restore source on tape drive i.
func (f *Filer) Source(ctx context.Context, drive int) *logical.DriveSource {
	return logical.NewDriveSource(f.Tapes[drive], sim.ProcFrom(ctx), 0)
}

// LoadTape mounts the next cartridge in drive i's stacker.
func (f *Filer) LoadTape(ctx context.Context, drive int) error {
	return f.Tapes[drive].Load(sim.ProcFrom(ctx))
}

// LogicalDump snapshots the filesystem and runs a level-`level`
// logical dump of subtree (or "" for everything) to tape drive
// `drive`. The snapshot is deleted afterwards, matching the measured
// procedure of the paper's Table 3 (create snapshot … dump … delete
// snapshot).
func (f *Filer) LogicalDump(ctx context.Context, drive, level int, subtree, snapName string, stages logical.StageRecorder) (*logical.DumpStats, error) {
	if err := f.FS.CreateSnapshot(ctx, snapName); err != nil {
		return nil, err
	}
	defer f.FS.DeleteSnapshot(ctx, snapName)
	view, err := f.FS.SnapshotView(snapName)
	if err != nil {
		return nil, err
	}
	stats, err := logical.Dump(ctx, logical.DumpOptions{
		View:      view,
		Level:     level,
		Dates:     f.Dates,
		FSID:      f.Config.Name + subtree,
		Subtree:   subtree,
		Sink:      f.Sink(ctx, drive),
		Label:     snapName,
		ReadAhead: 16,
		Stages:    stages,
	})
	if err != nil {
		return nil, err
	}
	f.Tapes[drive].Flush(sim.ProcFrom(ctx))
	return stats, nil
}

// LogicalRestore reads a dump stream from drive into this filer's
// filesystem under target.
func (f *Filer) LogicalRestore(ctx context.Context, drive int, target string, syncDeletes bool, stages logical.StageRecorder) (*logical.RestoreStats, error) {
	f.Tapes[drive].Rewind(sim.ProcFrom(ctx))
	return logical.Restore(ctx, logical.RestoreOptions{
		FS:               f.FS,
		Source:           f.Source(ctx, drive),
		TargetDir:        target,
		SyncDeletes:      syncDeletes,
		KernelIntegrated: true,
		Stages:           stages,
	})
}

// ImageDump snapshots the filesystem and image-dumps it to drive;
// baseSnap non-empty makes it incremental (the base snapshot must
// still exist). Unlike LogicalDump the snapshot is kept: it is the
// base of the next incremental.
func (f *Filer) ImageDump(ctx context.Context, drive int, snapName, baseSnap string) (*physical.DumpStats, error) {
	if err := f.FS.CreateSnapshot(ctx, snapName); err != nil {
		return nil, err
	}
	stats, err := physical.Dump(ctx, physical.DumpOptions{
		FS:           f.FS,
		Vol:          f.Vol,
		SnapName:     snapName,
		BaseSnapName: baseSnap,
		Sink:         f.Sink(ctx, drive),
		Costs:        f.Config.PhysCosts,
	})
	if err != nil {
		return nil, err
	}
	f.Tapes[drive].Flush(sim.ProcFrom(ctx))
	return stats, nil
}

// ImageRestore applies an image stream from drive to a raw volume,
// bypassing any filesystem.
func (f *Filer) ImageRestore(ctx context.Context, drive int, vol storage.Device, incremental bool) (*physical.RestoreStats, error) {
	f.Tapes[drive].Rewind(sim.ProcFrom(ctx))
	return physical.Restore(ctx, physical.RestoreOptions{
		Vol:               vol,
		Source:            f.Source(ctx, drive),
		Costs:             f.Config.PhysCosts,
		ExpectIncremental: incremental,
	})
}

// Proc returns a context carrying p so filesystem and device calls
// charge virtual time.
func Proc(ctx context.Context, p *sim.Proc) context.Context { return sim.WithProc(ctx, p) }
