// Package chaos runs whole-pipeline fault scenarios: a filesystem is
// built on faulty storage, dumped to a faulty tape library with either
// backup engine, restored from whatever survived, and the result
// compared against the source tree. The invariant under test is the
// paper's operational claim made precise:
//
//	every dump/restore cycle under seeded faults either reproduces
//	the source tree byte-identically, or the dump's damage report
//	names exactly the inodes that differ.
//
// Faults come from three layers, all seeded and reproducible: latent
// sector errors planted under file data blocks (flat topology) or a
// probabilistic fault profile on one RAID member (raid topology, where
// degraded-mode reconstruction must hide them), plus media write
// errors and drive-offline events on the tape library. Offline events
// abort the dump; the runner resumes from the returned checkpoint on a
// fresh drive and restores the concatenated streams.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/logical"
	"repro/internal/obs"
	"repro/internal/raid"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/tape"
	"repro/internal/vdev"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// Scenario is one seeded chaos run.
type Scenario struct {
	Seed   int64
	Engine catalog.Engine
	// Raid mounts the filesystem on a 4+1 RAID-4 volume and arms
	// Profile on one data member: every injected fault must be absorbed
	// by retry or parity reconstruction, so the tree must come back
	// byte-identical. Without Raid the filesystem sits directly on a
	// FaultDevice and DataBlockFaults latent sector errors are planted
	// under randomly chosen file data blocks — the logical engine must
	// hole-map exactly those and report them.
	Raid            bool
	Profile         storage.FaultProfile
	DataBlockFaults int

	// Tape is armed on the first drive; resumed dumps get the same
	// config minus the offline event (the replacement drive works).
	Tape         tape.FaultConfig
	TapeCapacity int64 // per cartridge, 0 = unlimited
	Cartridges   int   // per drive, min 1

	Files           int
	MeanFileSize    int
	CheckpointEvery int // files (logical) or blocks (physical)
	MaxResumes      int
}

// Report is the outcome of a scenario.
type Report struct {
	Engine  catalog.Engine
	Seed    int64
	Resumes int // checkpoint-resumed dump invocations

	TapeRetries  int // transient media errors absorbed by the sink
	TapeSwaps    int // cartridges abandoned to persistent media errors
	RaidRetries  int
	Reconstructs int

	Damaged   []logical.DamagedBlock // logical damage report, aggregated
	DiffPaths []string               // source paths that differ after restore

	// Identical: the restored tree matches byte for byte. Explained:
	// the differing paths are exactly the files the damage report
	// names. The chaos invariant is Identical || Explained.
	Identical bool
	Explained bool

	// Metrics is the run's final registry snapshot: every storage and
	// tape counter the scenario touched, for post-mortem inspection.
	Metrics []obs.Point
}

// Run executes one scenario and evaluates the chaos invariant. An
// error means the scenario could not be evaluated (unrecoverable dump
// failure, resume divergence) — not that the invariant failed; callers
// check Report.Identical/Explained for that.
func Run(ctx context.Context, s Scenario) (*Report, error) {
	if s.Files <= 0 {
		s.Files = 24
	}
	if s.MeanFileSize <= 0 {
		s.MeanFileSize = 12 << 10
	}
	s.CheckpointEvery = perEngine(s.CheckpointEvery, s.Engine, 2, 32)
	if s.MaxResumes <= 0 {
		s.MaxResumes = 4
	}
	rep := &Report{Engine: s.Engine, Seed: s.Seed}
	reg := obs.NewRegistry()
	ctx = obs.WithMetrics(ctx, reg)
	defer func() { rep.Metrics = reg.Snapshot() }()

	// Build the source filesystem on the chosen topology.
	const blocks = 8192
	var (
		dev    storage.Device
		flatFD *storage.FaultDevice
		vol    *raid.Volume
	)
	if s.Raid {
		var members []raid.Disk
		var disks []*vdev.Disk
		for i := 0; i < 4; i++ {
			d := vdev.New(nil, fmt.Sprintf("d%d", i), blocks/4, vdev.DefaultParams())
			members = append(members, d)
			disks = append(disks, d)
		}
		parity := vdev.New(nil, "p", blocks/4, vdev.DefaultParams())
		g, err := raid.NewGroup(members, parity)
		if err != nil {
			return nil, err
		}
		vol, err = raid.NewVolume("chaos", g)
		if err != nil {
			return nil, err
		}
		dev = vol
		vol.RegisterMetrics(reg)
		defer func() {
			rep.RaidRetries = int(reg.Sum("raid_retries_total"))
			rep.Reconstructs = int(reg.Sum("raid_reconstructs_total"))
		}()
		prof := s.Profile
		if prof.Seed == 0 {
			prof.Seed = s.Seed
		}
		prof.WriteFault = 0 // the dump is read-only; keep the source intact
		disks[int(s.Seed)%4].InjectFaults(prof)
	} else {
		flatFD = storage.NewFaultDevice(storage.NewMemDevice(blocks))
		dev = flatFD
	}

	fs, err := wafl.Mkfs(ctx, dev, nil, wafl.Options{CacheBlocks: 32})
	if err != nil {
		return nil, err
	}
	paths, err := workload.Generate(ctx, fs, treeSpec(s.Seed, s.Files, s.MeanFileSize))
	if err != nil {
		return nil, err
	}
	// Freeze and digest the source tree before any flat-topology faults
	// are planted — the reference must come from clean reads.
	// (Raid-member faults may already be armed; the volume hides them
	// by design.)
	src := &source{dev: dev, fs: fs, paths: paths}
	if err := src.freeze(ctx, "chaos"); err != nil {
		return nil, err
	}

	// Flat topology: plant latent sector errors under random file data
	// blocks, after the fill so the source itself stays readable.
	if flatFD != nil && s.DataBlockFaults > 0 {
		rng := rand.New(rand.NewSource(s.Seed*7919 + 1))
		for i := 0; i < s.DataBlockFaults; i++ {
			p := paths[rng.Intn(len(paths))]
			ino, err := src.view.Namei(ctx, p)
			if err != nil {
				return nil, err
			}
			inode, err := src.view.GetInode(ctx, ino)
			if err != nil {
				return nil, err
			}
			nfbn := int((inode.Size + wafl.BlockSize - 1) / wafl.BlockSize)
			if nfbn == 0 {
				continue
			}
			pbn, err := src.view.BlockAt(ctx, ino, uint32(rng.Intn(nfbn)))
			if err != nil {
				return nil, err
			}
			if pbn != 0 {
				flatFD.FailRead(int(pbn), storage.ErrLatentSector)
			}
		}
	}

	// Remount so the dump's reads are cold and actually hit the faulty
	// devices rather than the fill's and the digest pass's warm cache.
	if src.fs, err = wafl.Mount(ctx, dev, nil, wafl.Options{CacheBlocks: 32}); err != nil {
		return nil, err
	}
	if src.view, err = src.fs.SnapshotView("chaos"); err != nil {
		return nil, err
	}

	// Dump, one drive per attempt: the fault is armed on the first;
	// an offline event aborts the attempt and the replacement drive
	// (same media faults, no offline event) takes the resumed stream.
	tapeCfg := s.Tape
	if tapeCfg.Seed == 0 {
		tapeCfg.Seed = s.Seed
	}
	job := src.dump(s.Engine, s.CheckpointEvery, 0)
	var tapes []*streamTape
	rep.Resumes, err = engine.Resume(ctx, job, s.MaxResumes, func(attempt int) (stream.Sink, func(error) error, error) {
		t, err := newStreamTape(fmt.Sprintf("t%d", attempt), s.Cartridges, s.TapeCapacity)
		if err != nil {
			return nil, nil, err
		}
		cfg := tapeCfg
		if attempt > 0 {
			cfg.OfflineAfterRecords = 0
		}
		t.drive.InjectFaults(cfg)
		t.drive.RegisterMetrics(reg)
		tapes = append(tapes, t)
		return t.sink, func(err error) error {
			retries, swaps := t.sink.MediaStats()
			rep.TapeRetries += retries
			rep.TapeSwaps += swaps
			// A failed attempt's damage report counts only up to its
			// checkpoint; the resume re-dumps (and re-reports) the rest.
			if st := job.LogicalStats; st != nil {
				for _, d := range st.Damaged {
					if err == nil || (st.Checkpoint != nil && d.Ino <= st.Checkpoint.LastIno) {
						rep.Damaged = append(rep.Damaged, d)
					}
				}
			}
			return err
		}, nil
	}, func(err error) bool { return errors.Is(err, tape.ErrOffline) })
	if err != nil {
		return nil, fmt.Errorf("chaos: %s dump: %w", s.Engine, err)
	}
	if rep.DiffPaths, err = src.restoreDiff(ctx, s.Engine, sources(tapes)); err != nil {
		return nil, err
	}
	return evaluate(ctx, rep, src.view)
}

// evaluate checks that any differences are exactly the inodes the
// damage report names.
func evaluate(ctx context.Context, rep *Report, src *wafl.View) (*Report, error) {
	rep.Identical = len(rep.DiffPaths) == 0

	damagedInos := make(map[wafl.Inum]bool)
	for _, d := range rep.Damaged {
		damagedInos[d.Ino] = true
	}
	diffInos := make(map[wafl.Inum]bool)
	explained := true
	for _, p := range rep.DiffPaths {
		ino, err := src.Namei(ctx, p)
		if err != nil {
			explained = false // a path the source never had
			continue
		}
		diffInos[ino] = true
		if !damagedInos[ino] {
			explained = false
		}
	}
	for ino := range damagedInos {
		if !diffInos[ino] {
			explained = false // reported damage with no visible effect
		}
	}
	rep.Explained = explained
	return rep, nil
}
