package storage

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/sim"
)

// Fault-classification errors. A transient fault clears on its own
// after a bounded number of retries (firmware recovery, vibration, a
// marginal read); a latent sector error is persistent and can only be
// served by redundancy above the device.
var (
	ErrTransient    = errors.New("storage: transient read fault")
	ErrLatentSector = errors.New("storage: latent sector error")
	ErrWriteFault   = errors.New("storage: media write fault")
)

// IsTransient reports whether err is a transient fault worth retrying.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// FaultProfile configures seeded probabilistic fault injection on a
// FaultDevice. All probabilities are per-operation in [0,1]; the zero
// value injects nothing.
type FaultProfile struct {
	// Seed initialises the device's private rand.Rand; the same seed
	// and the same operation sequence reproduce the same faults.
	Seed int64
	// ReadFault is the per-block probability that a read injects a
	// fault (classified transient or persistent by Transient below).
	ReadFault float64
	// RunFault is the per-run-read probability of one additional fault
	// at a uniformly chosen offset inside the run, modelling errors
	// that correlate with long sequential transfers.
	RunFault float64
	// WriteFault is the per-block probability that a write fails.
	WriteFault float64
	// Transient is the fraction of injected read faults that are
	// transient; the rest become sticky latent sector errors.
	Transient float64
	// HealAfter is how many failed attempts a transient fault survives
	// before the block reads cleanly again. 0 means 1.
	HealAfter int
	// MaxFaults caps the total number of injected faults; 0 = no cap.
	MaxFaults int
	// SkipReads exempts the first N block reads from injection, so a
	// scenario can fill a device cleanly and fault only the backup.
	SkipReads int
}

// FaultStats counts faults injected by an armed profile.
type FaultStats struct {
	Transient  int // transient read faults injected
	Persistent int // latent sector errors injected
	Write      int // write faults injected
}

func (s FaultStats) total() int { return s.Transient + s.Persistent + s.Write }

// Arm enables probabilistic fault injection according to p. The
// deterministic Fail/FailRead API keeps working alongside; Disarm
// stops new injections but leaves already-injected latent sector
// errors in place (a bad sector does not heal by switching the
// injector off).
func (d *FaultDevice) Arm(p FaultProfile) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.prof = &p
	d.rng = rand.New(rand.NewSource(p.Seed))
	if d.transient == nil {
		d.transient = make(map[int]int)
	}
}

// Disarm stops probabilistic injection. Latent sector errors already
// injected (and any deterministic FailRead entries) remain.
func (d *FaultDevice) Disarm() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.prof = nil
}

// ClearFaults forgets all injected and deterministic per-block faults
// and any whole-device failure, as if the device were replaced.
func (d *FaultDevice) ClearFaults() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed = false
	d.failReads = make(map[int]error)
	d.transient = make(map[int]int)
}

// FaultStats returns how many faults the armed profile has injected.
func (d *FaultDevice) FaultStats() FaultStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// readFault decides whether the read of block bno faults, applying
// transient-heal bookkeeping and, when force is set, injecting
// unconditionally (used for run-correlated faults). Callers hold d.mu.
func (d *FaultDevice) readFault(bno int, force bool) error {
	if rem, ok := d.transient[bno]; ok {
		if rem > 0 {
			d.transient[bno] = rem - 1
			return fmt.Errorf("%w: block %d", ErrTransient, bno)
		}
		delete(d.transient, bno) // healed
	}
	p := d.prof
	if p == nil {
		return nil
	}
	seq := d.totalReads
	d.totalReads++
	if seq < p.SkipReads {
		return nil
	}
	if p.MaxFaults > 0 && d.stats.total() >= p.MaxFaults {
		return nil
	}
	if !force && (p.ReadFault <= 0 || d.rng.Float64() >= p.ReadFault) {
		return nil
	}
	if d.rng.Float64() < p.Transient {
		heal := p.HealAfter
		if heal <= 0 {
			heal = 1
		}
		// This failure is the first of heal; the rest are owed.
		d.transient[bno] = heal - 1
		d.stats.Transient++
		return fmt.Errorf("%w: block %d", ErrTransient, bno)
	}
	err := fmt.Errorf("%w: block %d", ErrLatentSector, bno)
	d.failReads[bno] = err // sticky until ClearFaults
	d.stats.Persistent++
	return err
}

// runFaultIndex draws the offset of a run-correlated fault for a run
// of n blocks, or -1. Callers hold d.mu.
func (d *FaultDevice) runFaultIndex(n int) int {
	p := d.prof
	if p == nil || p.RunFault <= 0 || n <= 0 {
		return -1
	}
	if p.MaxFaults > 0 && d.stats.total() >= p.MaxFaults {
		return -1
	}
	if d.rng.Float64() >= p.RunFault {
		return -1
	}
	return d.rng.Intn(n)
}

// writeFault decides whether the write of block bno faults. Callers
// hold d.mu.
func (d *FaultDevice) writeFault(bno int) error {
	p := d.prof
	if p == nil || p.WriteFault <= 0 {
		return nil
	}
	if p.MaxFaults > 0 && d.stats.total() >= p.MaxFaults {
		return nil
	}
	if d.rng.Float64() >= p.WriteFault {
		return nil
	}
	d.stats.Write++
	return fmt.Errorf("%w: block %d", ErrWriteFault, bno)
}

// RetryPolicy bounds recovery of transient faults: up to MaxRetries
// re-reads, sleeping Initial*Multiplier^(attempt-1) of simulated time
// before each.
type RetryPolicy struct {
	MaxRetries int
	Initial    time.Duration
	Multiplier float64
}

// DefaultRetryPolicy matches a disk firmware's bounded retry loop:
// four attempts with 2 ms exponential backoff.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 4, Initial: 2 * time.Millisecond, Multiplier: 2}
}

// Delay returns the backoff before retry attempt (1-based).
func (p RetryPolicy) Delay(attempt int) time.Duration {
	d := p.Initial
	if d <= 0 {
		d = time.Millisecond
	}
	m := p.Multiplier
	if m < 1 {
		m = 1
	}
	for i := 1; i < attempt; i++ {
		d = time.Duration(float64(d) * m)
	}
	return d
}

// Charge sleeps the simulated process carried in ctx for the
// attempt's backoff. Retry latency is charged to the virtual clock,
// never to wall time; untimed contexts pay nothing.
func (p RetryPolicy) Charge(ctx context.Context, attempt int) {
	if proc := sim.ProcFrom(ctx); proc != nil {
		proc.Sleep(p.Delay(attempt))
	}
}
