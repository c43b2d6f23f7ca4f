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
)

// Scenario is one seeded chaos run.
type Scenario struct {
	Dataset
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

	CheckpointEvery int // files (logical) or blocks (physical)
}

// Report is the outcome of a scenario.
type Report struct {
	Outcome

	TapeRetries  int // transient media errors absorbed by the sink
	TapeSwaps    int // cartridges abandoned to persistent media errors
	RaidRetries  int
	Reconstructs int

	Damaged []logical.DamagedBlock // logical damage report, aggregated
	// Explained: the differing paths are exactly the files the damage
	// report names.
	Explained bool
}

// Holds is the chaos invariant: the restored tree is byte-identical,
// or a non-empty damage report names exactly the inodes that differ.
func (r *Report) Holds() bool {
	return r.Identical || (len(r.Damaged) > 0 && r.Explained)
}

// Named is one of the Run scenarios `make chaos` proves and `backupctl
// --faults` runs.
type Named struct {
	Name string
	Only catalog.Engine // the one engine it applies to; 0 = both
	For  func(eng catalog.Engine, seed int64) Scenario
}

// The named scenarios, and Suite, the order the CLI runs them in.
var (
	// Damage plants latent sector errors under file data with no
	// redundancy beneath: the logical dump must hole-map and report them.
	Damage = Named{Name: "damage", Only: catalog.Logical,
		For: func(eng catalog.Engine, seed int64) Scenario {
			return Scenario{Dataset: Dataset{Seed: seed, Engine: eng}, DataBlockFaults: 3,
				Tape: tape.FaultConfig{WriteFault: 0.02, Transient: 1.0}}
		}}
	// RaidMember arms a flaky RAID member the volume must hide.
	RaidMember = Named{Name: "raid",
		For: func(eng catalog.Engine, seed int64) Scenario {
			return Scenario{Dataset: Dataset{Seed: seed, Engine: eng}, Raid: true,
				Profile: storage.FaultProfile{ReadFault: 0.15, RunFault: 0.5, Transient: 0.5, HealAfter: 2},
				Tape:    tape.FaultConfig{WriteFault: 0.01, Transient: 1.0}}
		}}
	// Offline drops the drive mid-dump, after 12 logical or 4 image
	// records (image records are 60 KB, logical 10 KB).
	Offline = Named{Name: "offline",
		For: func(eng catalog.Engine, seed int64) Scenario {
			return Scenario{Dataset: Dataset{Seed: seed, Engine: eng, Files: 30},
				Tape: tape.FaultConfig{OfflineAfterRecords: perEngine(0, eng, 12, 4)}}
		}}
	Suite = []Named{Damage, RaidMember, Offline}
)

// Run executes one scenario and evaluates the chaos invariant. An
// error means the scenario could not be evaluated (unrecoverable dump
// failure, resume divergence) — not that the invariant failed; callers
// check Report.Holds for that.
func Run(ctx context.Context, s Scenario) (*Report, error) {
	s.defaults(24)
	rep := &Report{Outcome: Outcome{Engine: s.Engine, Seed: s.Seed}}
	reg := obs.NewRegistry()
	ctx = obs.WithMetrics(ctx, reg)
	defer func() { rep.Metrics = reg.Snapshot() }()

	// Build the source filesystem on the chosen topology.
	const blocks = 8192
	var (
		dev    storage.Device
		flatFD *storage.FaultDevice
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
		vol, err := raid.NewVolume("chaos", g)
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

	// Freeze and digest the source tree before any flat-topology faults
	// are planted — the reference must come from clean reads.
	// (Raid-member faults may already be armed; the volume hides them
	// by design.)
	src, err := newSource(ctx, s.Dataset, dev, wafl.Options{CacheBlocks: 32})
	if err != nil {
		return nil, err
	}

	// Flat topology: plant latent sector errors under random file data
	// blocks, after the fill so the source itself stays readable.
	if flatFD != nil && s.DataBlockFaults > 0 {
		rng := rand.New(rand.NewSource(s.Seed*7919 + 1))
		for i := 0; i < s.DataBlockFaults; i++ {
			p := src.paths[rng.Intn(len(src.paths))]
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
	job := src.resumable(s.Engine, s.CheckpointEvery)
	var tapes []*streamTape
	rep.Resumes, err = engine.Resume(ctx, job, maxResumes, func(attempt int) (stream.Sink, func(error) error, error) {
		t, err := newStreamTape(fmt.Sprintf("t%d", attempt), s.Cartridges, s.TapeCapacity)
		if err != nil {
			return nil, nil, err
		}
		cfg := tapeCfg
		if attempt > 0 {
			cfg.OfflineAfterRecords = 0
		}
		t.Drive.InjectFaults(cfg)
		t.Drive.RegisterMetrics(reg)
		tapes = append(tapes, t)
		return t, func(err error) error {
			retries, swaps := t.MediaStats()
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
	if err := rep.restore(ctx, src, tapes); err != nil {
		return nil, err
	}
	rep.Explained = explained(ctx, rep, src.view)
	return rep, nil
}

// explained reports whether the differing paths are exactly the
// inodes the damage report names.
func explained(ctx context.Context, rep *Report, src *wafl.View) bool {
	damaged := make(map[wafl.Inum]bool)
	for _, d := range rep.Damaged {
		damaged[d.Ino] = true
	}
	differ := make(map[wafl.Inum]bool)
	for _, p := range rep.DiffPaths {
		ino, err := src.Namei(ctx, p)
		if err != nil || !damaged[ino] {
			return false // a path the source never had, or unreported damage
		}
		differ[ino] = true
	}
	return len(differ) == len(damaged) // no reported damage without a visible effect
}
