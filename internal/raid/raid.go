// Package raid implements the software RAID-4 subsystem that WAFL sits
// on in the paper. A Volume is a concatenation of RAID groups, each of
// which stripes data blocks across N data disks and keeps real XOR
// parity on a dedicated parity disk.
//
// Image dump/restore reads and writes "directly through the internal
// software RAID subsystem" (paper §4.1), bypassing the filesystem, so
// this layer is a first-class code path of the reproduction: parity is
// computed for real, a failed disk can be read in degraded mode by
// XOR reconstruction, and a replacement disk can be rebuilt.
package raid

import (
	"bytes"
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bufpool"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Errors returned by the RAID layer.
var (
	ErrDoubleFailure = errors.New("raid: more than one failed disk in group")
	ErrNoFailure     = errors.New("raid: no failed disk to rebuild")
)

// Disk is the device interface a RAID group needs from its members:
// block and bulk-run I/O, the asynchronous run read, and the prefetch
// hook used for streaming reads.
type Disk interface {
	storage.AsyncRunDevice
	Prefetch(ctx context.Context, bno int)
	Flush(ctx context.Context)
	Station() *sim.Station
}

// Group is a RAID-4 group: len(data) data disks plus one parity disk,
// all of equal size. Data block b of the group lives on disk b % n at
// disk-block b / n, so an ascending scan of group blocks keeps every
// member disk sequential — the property that lets physical dump run at
// streaming rates.
type Group struct {
	data   []Disk
	parity Disk
	failed int // index into data of the failed disk, or -1

	// parityRecent ring-buffers the stripes whose parity write was
	// recently charged. Consecutive writes within a stripe coalesce
	// into one charged parity write; tracking several stripes keeps
	// the coalescing working when multiple streams interleave on the
	// group (otherwise the parity disk would be charged per block and
	// become a phantom bottleneck no real full-stripe writer sees).
	// parityMu guards it: parallel restore shards write through the
	// same group from separate goroutines.
	parityMu     sync.Mutex
	parityRecent [8]int
	parityNext   int

	// retry bounds recovery of transient member faults before the
	// group falls back to parity reconstruction. The counters are
	// atomic because parallel dump shards read through the same group
	// concurrently.
	retry        storage.RetryPolicy
	retries      atomic.Int64 // transient-fault retries performed
	reconstructs atomic.Int64 // single-block degraded reads served from parity

	stripeReads  atomic.Int64 // bulk ReadRun calls served on the striped fast path
	degradedRuns atomic.Int64 // runs that fell back to per-block degraded reads
}

// NewGroup builds a RAID-4 group. All disks must have equal size.
func NewGroup(data []Disk, parity Disk) (*Group, error) {
	if len(data) == 0 {
		return nil, errors.New("raid: group needs at least one data disk")
	}
	n := data[0].NumBlocks()
	for i, d := range data {
		if d.NumBlocks() != n {
			return nil, fmt.Errorf("raid: data disk %d size %d != %d", i, d.NumBlocks(), n)
		}
	}
	if parity.NumBlocks() != n {
		return nil, fmt.Errorf("raid: parity disk size %d != %d", parity.NumBlocks(), n)
	}
	g := &Group{data: data, parity: parity, failed: -1, retry: storage.DefaultRetryPolicy()}
	for i := range g.parityRecent {
		g.parityRecent[i] = -1
	}
	return g, nil
}

// NumBlocks returns the group's data capacity in blocks.
func (g *Group) NumBlocks() int { return len(g.data) * g.data[0].NumBlocks() }

// Data returns the member data disks, for instrumentation.
func (g *Group) Data() []Disk { return g.data }

// Parity returns the parity disk, for instrumentation.
func (g *Group) Parity() Disk { return g.parity }

// locate maps a group data block to (disk index, disk block).
func (g *Group) locate(bno int) (disk, dblock int) {
	return bno % len(g.data), bno / len(g.data)
}

// FailDisk marks data disk i failed; subsequent reads reconstruct.
func (g *Group) FailDisk(i int) error {
	if i < 0 || i >= len(g.data) {
		return fmt.Errorf("raid: no data disk %d", i)
	}
	if g.failed != -1 {
		return ErrDoubleFailure
	}
	g.failed = i
	return nil
}

// ReadBlock reads group data block bno, reconstructing from parity if
// the owning disk has failed.
func (g *Group) ReadBlock(ctx context.Context, bno int, buf []byte) error {
	if bno < 0 || bno >= g.NumBlocks() {
		return fmt.Errorf("%w: %d of %d", storage.ErrOutOfRange, bno, g.NumBlocks())
	}
	disk, dblock := g.locate(bno)
	if disk != g.failed {
		return g.readMember(ctx, disk, dblock, buf)
	}
	return g.reconstruct(ctx, dblock, buf)
}

// RecoveryStats returns how many transient-fault retries the group has
// performed and how many single-block reads it has served degraded
// (reconstructed from parity because the owning block was unreadable).
func (g *Group) RecoveryStats() (retries, reconstructs int) {
	return int(g.retries.Load()), int(g.reconstructs.Load())
}

// readRetry reads dblock of member disk d, retrying transient faults
// under the group's policy with backoff charged to the simulated
// clock. Persistent errors come back to the caller.
func (g *Group) readRetry(ctx context.Context, d Disk, dblock int, buf []byte) error {
	err := d.ReadBlock(ctx, dblock, buf)
	for attempt := 1; storage.IsTransient(err) && attempt <= g.retry.MaxRetries; attempt++ {
		g.retries.Add(1)
		g.retry.Charge(ctx, attempt)
		err = d.ReadBlock(ctx, dblock, buf)
	}
	return err
}

// readMember reads dblock of data disk i. A transient fault is
// retried; a persistent one (latent sector error) is served in
// degraded mode by reconstructing the block from the stripe's peers
// plus parity, without declaring the whole disk failed.
func (g *Group) readMember(ctx context.Context, i, dblock int, buf []byte) error {
	err := g.readRetry(ctx, g.data[i], dblock, buf)
	if err == nil {
		return nil
	}
	if rerr := g.reconstructSkip(ctx, i, dblock, buf); rerr != nil {
		return fmt.Errorf("raid: disk %d block %d unreadable (%w); reconstruction failed: %v", i, dblock, err, rerr)
	}
	g.reconstructs.Add(1)
	return nil
}

// reconstruct rebuilds the failed disk's block dblock into buf by
// XOR-ing the same stripe position on every surviving disk plus parity.
func (g *Group) reconstruct(ctx context.Context, dblock int, buf []byte) error {
	return g.reconstructSkip(ctx, g.failed, dblock, buf)
}

// reconstructSkip rebuilds disk skip's block dblock from the other
// members plus parity. It refuses when a different disk is already
// wholly failed (double failure). Peer reads retry transient faults
// but do not recurse into reconstruction: two bad blocks in one
// stripe are genuinely unrecoverable in RAID-4.
func (g *Group) reconstructSkip(ctx context.Context, skip, dblock int, buf []byte) error {
	if g.failed >= 0 && g.failed != skip {
		return ErrDoubleFailure
	}
	clear(buf)
	scratch := bufpool.Get(storage.BlockSize)
	defer bufpool.Put(scratch)
	tmp := *scratch
	for i, d := range g.data {
		if i == skip {
			continue
		}
		if err := g.readRetry(ctx, d, dblock, tmp); err != nil {
			return err
		}
		xorInto(buf, tmp)
	}
	if err := g.readRetry(ctx, g.parity, dblock, tmp); err != nil {
		return err
	}
	xorInto(buf, tmp)
	return nil
}

// WriteBlock writes group data block bno and updates parity so that
// parity ^= old ^ new.
//
// Parity bytes are always kept exact, but the *timing* model reflects
// WAFL's write-anywhere behaviour rather than naive RAID-4
// read-modify-write: WAFL gathers dirty blocks into full-stripe writes
// at consistency points, so parity costs roughly one extra disk write
// per stripe, not two extra reads and a write per block. We therefore
// fetch the old data and parity untimed (they are needed only to keep
// the XOR exact) and charge the parity disk once per stripe touched.
//
// Writing to a failed disk's block updates parity only, so the data
// remains reconstructible.
func (g *Group) WriteBlock(ctx context.Context, bno int, data []byte) error {
	if bno < 0 || bno >= g.NumBlocks() {
		return fmt.Errorf("%w: %d of %d", storage.ErrOutOfRange, bno, g.NumBlocks())
	}
	if len(data) != storage.BlockSize {
		return fmt.Errorf("%w: %d", storage.ErrBadLength, len(data))
	}
	disk, dblock := g.locate(bno)
	untimed := context.Background()
	oldBuf := bufpool.Get(storage.BlockSize)
	defer bufpool.Put(oldBuf)
	old := *oldBuf
	if disk == g.failed {
		if err := g.reconstruct(ctx, dblock, old); err != nil {
			return err
		}
	} else if err := g.readMember(untimed, disk, dblock, old); err != nil {
		return err
	}
	parBuf := bufpool.Get(storage.BlockSize)
	defer bufpool.Put(parBuf)
	par := *parBuf
	if err := g.readRetry(untimed, g.parity, dblock, par); err != nil {
		return err
	}
	xorInto(par, old)
	xorInto(par, data)
	if disk != g.failed {
		if err := g.data[disk].WriteBlock(ctx, dblock, data); err != nil {
			return err
		}
	}
	parityCtx := untimed
	if g.chargeParity(dblock) {
		parityCtx = ctx
	}
	return g.parity.WriteBlock(parityCtx, dblock, par)
}

// Rebuild reconstructs the failed disk's entire contents onto
// replacement and re-adds it to the group.
func (g *Group) Rebuild(ctx context.Context, replacement Disk) error {
	if g.failed < 0 {
		return ErrNoFailure
	}
	if replacement.NumBlocks() != g.data[0].NumBlocks() {
		return fmt.Errorf("raid: replacement size %d != %d", replacement.NumBlocks(), g.data[0].NumBlocks())
	}
	buf := make([]byte, storage.BlockSize)
	for dblock := 0; dblock < replacement.NumBlocks(); dblock++ {
		if err := g.reconstruct(ctx, dblock, buf); err != nil {
			return err
		}
		if err := replacement.WriteBlock(ctx, dblock, buf); err != nil {
			return err
		}
	}
	g.data[g.failed] = replacement
	g.failed = -1
	return nil
}

// VerifyParity recomputes parity for every stripe and reports the
// group data blocks belonging to any stripe whose parity is wrong.
func (g *Group) VerifyParity(ctx context.Context) ([]int, error) {
	var bad []int
	acc := make([]byte, storage.BlockSize)
	tmp := make([]byte, storage.BlockSize)
	for dblock := 0; dblock < g.data[0].NumBlocks(); dblock++ {
		clear(acc)
		for _, d := range g.data {
			if err := d.ReadBlock(ctx, dblock, tmp); err != nil {
				return nil, err
			}
			xorInto(acc, tmp)
		}
		if err := g.parity.ReadBlock(ctx, dblock, tmp); err != nil {
			return nil, err
		}
		if !bytes.Equal(acc, tmp) {
			bad = append(bad, dblock*len(g.data))
		}
	}
	return bad, nil
}

// chargeParity reports whether a parity write for stripe dblock should
// be charged (first touch of the stripe recently) and records it.
func (g *Group) chargeParity(dblock int) bool {
	g.parityMu.Lock()
	defer g.parityMu.Unlock()
	for _, s := range g.parityRecent {
		if s == dblock {
			return false
		}
	}
	g.parityRecent[g.parityNext] = dblock
	g.parityNext = (g.parityNext + 1) % len(g.parityRecent)
	return true
}

// xorInto XORs src into dst, which are the same length, with the
// standard library's word- and vector-wide loop.
func xorInto(dst, src []byte) {
	subtle.XORBytes(dst, dst, src)
}
