// Package storage defines the block-device abstraction shared by the
// simulated disks (internal/vdev), the RAID layer (internal/raid) and
// the filesystem (internal/wafl), plus simple in-memory and
// fault-injecting implementations used throughout the tests.
package storage

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// BlockSize is the unit of all device I/O, matching WAFL's 4 KB blocks.
const BlockSize = 4096

// Errors returned by devices.
var (
	ErrOutOfRange = errors.New("storage: block number out of range")
	ErrBadLength  = errors.New("storage: buffer length != block size")
	ErrFailed     = errors.New("storage: device failed")
)

// Device is a fixed-geometry array of 4 KB blocks. Implementations may
// charge virtual time for each access via the sim process carried in
// ctx; without one, access is untimed.
//
// The run calls are semantically equivalent to n consecutive
// ReadBlock/WriteBlock calls but let an implementation amortize
// locking, bounds checks and (for timed devices) seek accounting over
// the whole run. Buffer ownership: buf belongs to the caller.
// Implementations must not retain it past the call, and ReadRun must
// fill every byte of buf[:n*BlockSize] (never-written blocks read as
// zeros).
type Device interface {
	// NumBlocks returns the device capacity in blocks.
	NumBlocks() int
	// ReadBlock fills buf (which must be BlockSize long) with block bno.
	ReadBlock(ctx context.Context, bno int, buf []byte) error
	// WriteBlock stores data (which must be BlockSize long) at block bno.
	WriteBlock(ctx context.Context, bno int, data []byte) error
	// ReadRun fills buf (n*BlockSize long) with blocks [bno, bno+n).
	ReadRun(ctx context.Context, bno, n int, buf []byte) error
	// WriteRun stores buf (n*BlockSize long) at blocks [bno, bno+n).
	WriteRun(ctx context.Context, bno, n int, buf []byte) error
}

// zeroBlock is the shared image of a never-written block: reads of
// unbacked blocks copy from it instead of clearing byte by byte.
var zeroBlock [BlockSize]byte

// MemDevice is an untimed in-memory Device. It is safe for concurrent
// use and is the workhorse of functional tests. Its run calls take the
// lock once.
type MemDevice struct {
	mu     sync.Mutex
	blocks [][]byte
}

// NewMemDevice creates an in-memory device of n blocks, all zero.
func NewMemDevice(n int) *MemDevice {
	return &MemDevice{blocks: make([][]byte, n)}
}

// NumBlocks implements Device.
func (d *MemDevice) NumBlocks() int { return len(d.blocks) }

// ReadBlock implements Device. Never-written blocks read as zeros.
func (d *MemDevice) ReadBlock(_ context.Context, bno int, buf []byte) error {
	if err := checkArgs(bno, len(d.blocks), buf); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if b := d.blocks[bno]; b != nil {
		copy(buf, b)
	} else {
		copy(buf, zeroBlock[:])
	}
	return nil
}

// ReadRun implements Device: one lock acquisition for the whole
// run, copying block slices (or the shared zero block) into buf.
func (d *MemDevice) ReadRun(_ context.Context, bno, n int, buf []byte) error {
	if err := checkRun(bno, n, len(d.blocks), buf); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := 0; i < n; i++ {
		dst := buf[i*BlockSize : (i+1)*BlockSize]
		if b := d.blocks[bno+i]; b != nil {
			copy(dst, b)
		} else {
			copy(dst, zeroBlock[:])
		}
	}
	return nil
}

// WriteRun implements Device: one lock acquisition for the run,
// backing all previously-unwritten blocks with a single arena
// allocation instead of one make per block.
func (d *MemDevice) WriteRun(_ context.Context, bno, n int, buf []byte) error {
	if err := checkRun(bno, n, len(d.blocks), buf); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	missing := 0
	for i := 0; i < n; i++ {
		if d.blocks[bno+i] == nil {
			missing++
		}
	}
	var arena []byte
	if missing > 0 {
		arena = make([]byte, missing*BlockSize)
	}
	for i := 0; i < n; i++ {
		if d.blocks[bno+i] == nil {
			d.blocks[bno+i] = arena[:BlockSize:BlockSize]
			arena = arena[BlockSize:]
		}
		copy(d.blocks[bno+i], buf[i*BlockSize:(i+1)*BlockSize])
	}
	return nil
}

// Clone returns an independent copy of the device's current contents,
// useful for inspecting a volume without perturbing it (mounting a
// filesystem read-write mutates the volume).
func (d *MemDevice) Clone() *MemDevice {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := NewMemDevice(len(d.blocks))
	for i, b := range d.blocks {
		if b != nil {
			cp := make([]byte, BlockSize)
			copy(cp, b)
			out.blocks[i] = cp
		}
	}
	return out
}

// WriteBlock implements Device.
func (d *MemDevice) WriteBlock(_ context.Context, bno int, data []byte) error {
	if err := checkArgs(bno, len(d.blocks), data); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.blocks[bno] == nil {
		d.blocks[bno] = make([]byte, BlockSize)
	}
	copy(d.blocks[bno], data)
	return nil
}

func checkArgs(bno, n int, buf []byte) error {
	if bno < 0 || bno >= n {
		return fmt.Errorf("%w: %d of %d", ErrOutOfRange, bno, n)
	}
	if len(buf) != BlockSize {
		return fmt.Errorf("%w: %d", ErrBadLength, len(buf))
	}
	return nil
}

// FaultDevice wraps a Device and injects failures, for RAID degraded
// mode and backup-robustness tests.
type FaultDevice struct {
	Inner Device

	mu        sync.Mutex
	failed    bool
	failReads map[int]error // per-block read errors
	reads     int
	writes    int

	// Probabilistic injection state (see faults.go); prof == nil when
	// only the deterministic Fail/FailRead API is in play.
	prof       *FaultProfile
	rng        *rand.Rand
	transient  map[int]int // block -> failed attempts still owed before heal
	totalReads int         // block reads observed, for FaultProfile.SkipReads
	stats      FaultStats
}

// NewFaultDevice wraps inner with fault injection initially disabled.
func NewFaultDevice(inner Device) *FaultDevice {
	return &FaultDevice{Inner: inner, failReads: make(map[int]error)}
}

// Fail makes every subsequent access return ErrFailed, simulating a
// whole-device loss.
func (d *FaultDevice) Fail() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed = true
}

// Heal clears a whole-device failure.
func (d *FaultDevice) Heal() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed = false
}

// FailRead makes reads of block bno return err (a latent sector error).
func (d *FaultDevice) FailRead(bno int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failReads[bno] = err
}

// Counts returns the number of reads and writes that reached the
// wrapped device.
func (d *FaultDevice) Counts() (reads, writes int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reads, d.writes
}

// NumBlocks implements Device.
func (d *FaultDevice) NumBlocks() int { return d.Inner.NumBlocks() }

// ReadBlock implements Device.
func (d *FaultDevice) ReadBlock(ctx context.Context, bno int, buf []byte) error {
	d.mu.Lock()
	if d.failed {
		d.mu.Unlock()
		return ErrFailed
	}
	if err, ok := d.failReads[bno]; ok {
		d.mu.Unlock()
		return err
	}
	if err := d.readFault(bno, false); err != nil {
		d.mu.Unlock()
		return err
	}
	d.reads++
	d.mu.Unlock()
	return d.Inner.ReadBlock(ctx, bno, buf)
}

// WriteBlock implements Device.
func (d *FaultDevice) WriteBlock(ctx context.Context, bno int, data []byte) error {
	d.mu.Lock()
	if d.failed {
		d.mu.Unlock()
		return ErrFailed
	}
	if err := d.writeFault(bno); err != nil {
		d.mu.Unlock()
		return err
	}
	d.writes++
	d.mu.Unlock()
	return d.Inner.WriteBlock(ctx, bno, data)
}

// ReadRun implements Device, preserving per-block fault semantics:
// a latent sector error inside the run surfaces after the blocks in
// front of it have been read, exactly as the per-block loop would.
func (d *FaultDevice) ReadRun(ctx context.Context, bno, n int, buf []byte) error {
	if err := checkRun(bno, n, d.Inner.NumBlocks(), buf); err != nil {
		return err
	}
	d.mu.Lock()
	if d.failed {
		d.mu.Unlock()
		return ErrFailed
	}
	bad, badErr := -1, error(nil)
	runAt := d.runFaultIndex(n)
	for i := 0; i < n; i++ {
		if err, ok := d.failReads[bno+i]; ok {
			bad, badErr = i, err
			break
		}
		if err := d.readFault(bno+i, i == runAt); err != nil {
			bad, badErr = i, err
			break
		}
	}
	good := n
	if bad >= 0 {
		good = bad
	}
	d.reads += good
	d.mu.Unlock()
	if good > 0 {
		if err := d.Inner.ReadRun(ctx, bno, good, buf[:good*BlockSize]); err != nil {
			return err
		}
	}
	return badErr
}

// WriteRun implements Device. A probabilistic write fault inside
// the run fails the whole run before any block is written; the
// write-behind layers above make a partial stripe indistinguishable
// from none anyway.
func (d *FaultDevice) WriteRun(ctx context.Context, bno, n int, buf []byte) error {
	d.mu.Lock()
	if d.failed {
		d.mu.Unlock()
		return ErrFailed
	}
	for i := 0; i < n; i++ {
		if err := d.writeFault(bno + i); err != nil {
			d.mu.Unlock()
			return err
		}
	}
	d.writes += n
	d.mu.Unlock()
	return d.Inner.WriteRun(ctx, bno, n, buf)
}
