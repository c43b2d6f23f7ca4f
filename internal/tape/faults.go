package tape

import (
	"errors"
	"fmt"
	"math/rand"
)

// Fault errors for the media model.
var (
	// ErrMediaWrite classifies media write errors; match with
	// errors.Is. The concrete error is a *MediaError.
	ErrMediaWrite = errors.New("tape: media write error")
	// ErrMediaRead classifies media read errors; match with
	// errors.Is. The concrete error is a *MediaError with Read set.
	ErrMediaRead = errors.New("tape: media read error")
	// ErrOffline is returned once a drive has dropped offline (power,
	// SCSI bus, robot arm); it stays down until SetOffline(false).
	ErrOffline = errors.New("tape: drive offline")
)

// MediaError is an injected media fault. A transient error clears on
// retry (a soft error the drive recovers by rewriting, or re-reading
// after a repositioning pass); a persistent write error marks the
// cartridge bad — every later write to it fails, though records
// already on it remain readable; a persistent read error latches on
// the record itself (a damaged spot of tape): that record never reads
// again, but its neighbours do, which is what restore's skip-damaged
// mode exploits.
type MediaError struct {
	Transient bool
	Read      bool // read-side fault; otherwise write-side
	Record    int  // record index at which the fault hit
}

func (e *MediaError) Error() string {
	kind := "persistent"
	if e.Transient {
		kind = "transient"
	}
	op := "write"
	if e.Read {
		op = "read"
	}
	return fmt.Sprintf("tape: %s media %s error at record %d", kind, op, e.Record)
}

// Is lets errors.Is(err, ErrMediaWrite) and errors.Is(err,
// ErrMediaRead) match the right side of the head.
func (e *MediaError) Is(target error) bool {
	if e.Read {
		return target == ErrMediaRead
	}
	return target == ErrMediaWrite
}

// IsTransientMedia reports whether err is a transient media write
// error worth retrying on the same cartridge. Writers ask after every
// record, so the nil case returns before errors.As, whose target
// escapes to the heap.
func IsTransientMedia(err error) bool {
	if err == nil {
		return false
	}
	var me *MediaError
	return errors.As(err, &me) && me.Transient
}

// FaultConfig arms seeded probabilistic faults on a drive.
type FaultConfig struct {
	// Seed initialises the drive's private rand.Rand.
	Seed int64
	// WriteFault is the per-record probability of a media write error.
	WriteFault float64
	// Transient is the fraction of media write errors that are
	// transient; the rest damage the cartridge.
	Transient float64
	// ReadFault is the per-record probability of a media read error,
	// injected on the restore/verify path.
	ReadFault float64
	// ReadTransient is the fraction of read errors that are
	// transient; the rest latch the record unreadable forever.
	ReadTransient float64
	// OfflineAfterRecords drops the drive offline right after this
	// many successful record writes (0 = never) — the mid-dump
	// power/robot failure that forces a checkpoint restart.
	OfflineAfterRecords int
}

// InjectFaults arms cfg on the drive. Deterministic injections via
// FailNextWrite and SetOffline work whether or not a config is armed.
func (d *Drive) InjectFaults(cfg FaultConfig) {
	d.faults = &cfg
	d.rng = rand.New(rand.NewSource(cfg.Seed))
}

// FailNextWrite queues a deterministic media error for the next
// WriteRecord. Multiple calls queue multiple errors, so a test can
// fail the first write on a fresh cartridge too.
func (d *Drive) FailNextWrite(transient bool) {
	d.pendingFail = append(d.pendingFail, transient)
}

// FailNextRead queues a deterministic media error for the next
// ReadRecord. A persistent one latches the record unreadable.
func (d *Drive) FailNextRead(transient bool) {
	d.pendingReadFail = append(d.pendingReadFail, transient)
}

// SetOffline forces the drive offline (true) or returns it to service
// (false) — the operator power-cycling the library.
func (d *Drive) SetOffline(off bool) { d.offline = off }

// Offline reports whether the drive is offline.
func (d *Drive) Offline() bool { return d.offline }

// MediaErrors returns how many media write errors the drive has
// surfaced (injected deterministically or probabilistically).
func (d *Drive) MediaErrors() int { return d.mediaErrors }

// Damaged reports whether the cartridge has a latched write fault.
func (c *Cartridge) Damaged() bool { return c.damaged }

// BadRecords returns how many records on the cartridge are latched
// unreadable by persistent read faults.
func (c *Cartridge) BadRecords() int { return len(c.badReads) }

// writeFault decides whether this WriteRecord faults, consuming any
// queued deterministic failure first.
func (d *Drive) writeFault() error {
	if len(d.pendingFail) > 0 {
		tr := d.pendingFail[0]
		d.pendingFail = d.pendingFail[1:]
		if !tr {
			d.cart.damaged = true
		}
		d.mediaErrors++
		return &MediaError{Transient: tr, Record: len(d.cart.records)}
	}
	if d.faults == nil || d.faults.WriteFault <= 0 {
		return nil
	}
	if d.skipDraw {
		// The previous draw produced a transient error; let the retry
		// of the same record through instead of re-rolling the dice,
		// so "transient" keeps its meaning under any WriteFault rate.
		d.skipDraw = false
		return nil
	}
	if d.rng.Float64() >= d.faults.WriteFault {
		return nil
	}
	d.mediaErrors++
	if d.rng.Float64() < d.faults.Transient {
		d.skipDraw = true
		return &MediaError{Transient: true, Record: len(d.cart.records)}
	}
	d.cart.damaged = true
	return &MediaError{Record: len(d.cart.records)}
}

// readFault decides whether the read of the record at the head faults.
// The head does NOT advance on a fault: a transient error re-reads the
// same record on retry, and a persistent one leaves the head parked
// before the bad spot so the caller can decide to space past it.
func (d *Drive) readFault() error {
	idx := d.pos
	if d.cart.badReads[idx] {
		// A latched bad spot fails every attempt, no new draw.
		return &MediaError{Read: true, Record: idx}
	}
	if d.cart.marginal[idx] {
		delete(d.cart.marginal, idx)
		d.mediaErrors++
		return &MediaError{Transient: true, Read: true, Record: idx}
	}
	if len(d.pendingReadFail) > 0 {
		tr := d.pendingReadFail[0]
		d.pendingReadFail = d.pendingReadFail[1:]
		d.mediaErrors++
		if !tr {
			d.latchBadRead(idx)
		}
		return &MediaError{Transient: tr, Read: true, Record: idx}
	}
	if d.faults == nil || d.faults.ReadFault <= 0 {
		return nil
	}
	if d.skipReadDraw {
		// The previous draw produced a transient error; let the retry
		// of the same record through instead of re-rolling the dice.
		d.skipReadDraw = false
		return nil
	}
	if d.rng.Float64() >= d.faults.ReadFault {
		return nil
	}
	d.mediaErrors++
	if d.rng.Float64() < d.faults.ReadTransient {
		d.skipReadDraw = true
		return &MediaError{Transient: true, Read: true, Record: idx}
	}
	d.latchBadRead(idx)
	return &MediaError{Read: true, Record: idx}
}

func (d *Drive) latchBadRead(idx int) {
	if d.cart.badReads == nil {
		d.cart.badReads = make(map[int]bool)
	}
	d.cart.badReads[idx] = true
}
