// Package logical implements the paper's logical (file-based) backup
// strategy: a kernel-integrated, BSD-style dump and restore (§3).
//
// Dump runs as the classic four-phase operation — map files, map
// directories, dump directories, dump files, all in inode order — and
// writes the archival stream format of internal/dumpfmt. Restore reads
// the directories into a "desiccated file system" it can run its own
// namei against, then lays files onto the filesystem, supporting full,
// subset (single-file "stupidity recovery") and incremental-chain
// restores.
//
// Everything here moves through the filesystem: reads and writes use
// wafl views and operations, paying the metadata-interpretation CPU
// and random-read disk costs the paper measures — in deliberate
// contrast to internal/physical, which bypasses the filesystem.
package logical

import (
	"context"
	"errors"
	"io"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/tape"
)

// DriveSink adapts a tape drive to stream.Sink, mapping end-of-media
// and cartridge changes. The sim process (may be nil) is charged for
// tape time.
//
// Media faults are absorbed here, below the stream format: transient
// write errors are retried with backoff charged to the simulated
// clock; a persistent media error means the cartridge is bad, which to
// the stream Writer looks exactly like running off the end of the
// volume — it is reported as ErrEndOfMedia so the Writer's normal
// volume-change path moves the dump to the next cartridge. Drive
// offline is not recoverable at this layer and propagates up, where
// the dump engines turn it into a checkpointed failure.
type DriveSink struct {
	Drive *tape.Drive
	Proc  *sim.Proc
	// Ctx, when set, is polled between backoff sleeps so a canceled
	// dump stops retrying instead of sleeping out the budget.
	Ctx context.Context

	retries int // transient media errors retried
	swaps   int // cartridges abandoned to persistent errors
}

// MediaStats reports transient retries and fault-driven cartridge
// swaps performed by the sink.
func (s *DriveSink) MediaStats() (retries, swaps int) { return s.retries, s.swaps }

// BindProc implements stream.ProcBinder: it rebinds the simulated
// process tape time is charged to and returns the previous binding. A
// shard of a multi-sink dump writes from its own process, so it binds
// the sink to itself for the shard's lifetime and restores the old
// binding on exit.
func (s *DriveSink) BindProc(p *sim.Proc) *sim.Proc {
	old := s.Proc
	s.Proc = p
	return old
}

// WriteRecord implements stream.Sink.
func (s *DriveSink) WriteRecord(data []byte) error {
	retry := storage.DefaultRetryPolicy()
	err := s.Drive.WriteRecord(s.Proc, data)
	for attempt := 1; tape.IsTransientMedia(err) && attempt <= retry.MaxRetries; attempt++ {
		if s.Ctx != nil && s.Ctx.Err() != nil {
			return s.Ctx.Err()
		}
		s.retries++
		if s.Proc != nil {
			s.Proc.Sleep(retry.Delay(attempt))
		}
		err = s.Drive.WriteRecord(s.Proc, data)
	}
	switch {
	case err == nil:
		return nil
	case errors.Is(err, tape.ErrEndOfMedia):
		return stream.ErrEndOfMedia
	case errors.Is(err, tape.ErrMediaWrite):
		// Persistent (or unhealed transient) media error: give up on
		// this cartridge. What was already written stays readable; the
		// Writer re-emits the failed record on the next volume.
		s.swaps++
		return stream.ErrEndOfMedia
	default:
		return err
	}
}

// NextVolume implements stream.Sink: load the next stacker cartridge.
func (s *DriveSink) NextVolume() error {
	return s.Drive.Load(s.Proc)
}

// DriveSource adapts a tape drive to stream.Source for restore,
// cycling through stacker cartridges at end of tape and treating an
// empty stacker as end of stream.
//
// Records come off the drive through tape.Drive.ReadData: transient
// read errors retried with backoff charged to the
// simulated clock. A persistent error — a damaged spot of tape —
// either propagates (default, verify wants to know) or, with
// SkipDamaged, is spaced past, leaning on the stream formats'
// resynchronization to salvage the rest.
type DriveSource struct {
	Drive *tape.Drive
	Proc  *sim.Proc
	// Ctx, when set, is polled between backoff sleeps so a canceled
	// restore stops retrying promptly.
	Ctx context.Context
	// SkipDamaged spaces past records with persistent read faults
	// instead of failing the restore.
	SkipDamaged bool

	volumes int // cartridges consumed so far
	max     int // stop after this many (0 = until the stacker empties)
	retries int // transient read errors retried
	skipped int // damaged records spaced past
}

// NewDriveSource reads from drive across at most maxVolumes cartridges
// (0 = keep loading until the stacker is empty).
func NewDriveSource(drive *tape.Drive, proc *sim.Proc, maxVolumes int) *DriveSource {
	return &DriveSource{Drive: drive, Proc: proc, max: maxVolumes}
}

// ReadStats reports transient read retries and damaged records
// skipped by the source.
func (s *DriveSource) ReadStats() (retries, skipped int) { return s.retries, s.skipped }

// BindProc rebinds the simulated process tape time is charged to and
// returns the previous binding (see DriveSink.BindProc).
func (s *DriveSource) BindProc(p *sim.Proc) *sim.Proc {
	old := s.Proc
	s.Proc = p
	return old
}

// ReadRecord implements stream.Source.
func (s *DriveSource) ReadRecord() ([]byte, error) {
	var damaged func(string, int)
	if s.SkipDamaged {
		damaged = s.noteSkipped
	}
	for {
		rec, retries, err := s.Drive.ReadData(s.Ctx, s.Proc, damaged)
		s.retries += retries
		if !errors.Is(err, tape.ErrEndOfTape) {
			return rec, err
		}
		s.volumes++
		if s.max > 0 && s.volumes >= s.max {
			return nil, io.EOF
		}
		if s.Drive.Load(s.Proc) != nil {
			return nil, io.EOF
		}
	}
}

func (s *DriveSource) noteSkipped(string, int) {
	s.skipped++
	if s.Ctx != nil {
		obs.MetricsFrom(s.Ctx).Counter("restore_skipped_records_total", nil).Inc()
	}
}
