package raid

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/vdev"
)

// Volume is a linear block address space made by concatenating RAID
// groups — the paper's "home" volume is 31 disks in 3 RAID groups, the
// "rlse" volume 22 disks in 2. It implements storage.Device, so the
// filesystem mounts directly on it, and adds the streaming and
// prefetch entry points that image dump and the buffer cache use.
type Volume struct {
	name   string
	groups []*Group
	starts []int // starting volume block of each group
	total  int

	// Traffic counters for the benchmark harness; atomic because
	// parallel dump shards stream through the volume concurrently.
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
}

// NewVolume concatenates groups into one volume.
func NewVolume(name string, groups ...*Group) (*Volume, error) {
	if len(groups) == 0 {
		return nil, errors.New("raid: volume needs at least one group")
	}
	v := &Volume{name: name, groups: groups}
	for _, g := range groups {
		v.starts = append(v.starts, v.total)
		v.total += g.NumBlocks()
	}
	return v, nil
}

// Config describes a volume to build from scratch.
type Config struct {
	// Groups is the number of RAID groups.
	Groups int
	// DataDisksPerGroup is the number of data disks in each group
	// (parity disks are added on top).
	DataDisksPerGroup int
	// BlocksPerDisk is each disk's capacity.
	BlocksPerDisk int
	// DiskParams is the per-disk performance model.
	DiskParams vdev.Params
}

// Build creates the disks and groups for cfg on env (nil for untimed)
// and assembles them into a volume named name.
func Build(env *sim.Env, name string, cfg Config) (*Volume, error) {
	if cfg.Groups <= 0 || cfg.DataDisksPerGroup <= 0 || cfg.BlocksPerDisk <= 0 {
		return nil, fmt.Errorf("raid: bad volume config %+v", cfg)
	}
	var groups []*Group
	for gi := 0; gi < cfg.Groups; gi++ {
		var data []Disk
		for di := 0; di < cfg.DataDisksPerGroup; di++ {
			data = append(data, vdev.New(env, fmt.Sprintf("%s/g%d/d%d", name, gi, di), cfg.BlocksPerDisk, cfg.DiskParams))
		}
		parity := vdev.New(env, fmt.Sprintf("%s/g%d/parity", name, gi), cfg.BlocksPerDisk, cfg.DiskParams)
		g, err := NewGroup(data, parity)
		if err != nil {
			return nil, err
		}
		groups = append(groups, g)
	}
	return NewVolume(name, groups...)
}

// Name returns the volume name.
func (v *Volume) Name() string { return v.name }

// NumBlocks implements storage.Device.
func (v *Volume) NumBlocks() int { return v.total }

// GroupStarts returns the first volume block of each RAID group. The
// filesystem's write allocation spreads files over the groups with it.
func (v *Volume) GroupStarts() []int { return v.starts }

// Groups returns the volume's RAID groups, for failure-injection tests.
func (v *Volume) Groups() []*Group { return v.groups }

// Traffic returns cumulative bytes read from and written to the volume.
func (v *Volume) Traffic() (read, written int64) { return v.bytesRead.Load(), v.bytesWritten.Load() }

// RecoveryStats sums transient-fault retries and degraded-mode block
// reconstructions across the volume's groups.
func (v *Volume) RecoveryStats() (retries, reconstructs int) {
	for _, g := range v.groups {
		r, c := g.RecoveryStats()
		retries += r
		reconstructs += c
	}
	return retries, reconstructs
}

// RegisterMetrics installs pull collectors for the volume's traffic
// and recovery counters and the disk busy time of the volume and of
// each of its groups, and registers every member disk that exposes
// metrics of its own. Idempotent per (registry, volume).
func (v *Volume) RegisterMetrics(r *obs.Registry) {
	l := obs.Labels{"vol": v.name}
	r.RegisterFunc("raid_read_bytes_total", obs.KindCounter, l, func() float64 {
		return float64(v.bytesRead.Load())
	})
	r.RegisterFunc("raid_written_bytes_total", obs.KindCounter, l, func() float64 {
		return float64(v.bytesWritten.Load())
	})
	r.RegisterFunc("raid_retries_total", obs.KindCounter, l, func() float64 {
		retries, _ := v.RecoveryStats()
		return float64(retries)
	})
	r.RegisterFunc("raid_reconstructs_total", obs.KindCounter, l, func() float64 {
		_, reconstructs := v.RecoveryStats()
		return float64(reconstructs)
	})
	r.RegisterFunc("raid_stripe_reads_total", obs.KindCounter, l, func() float64 {
		var n int64
		for _, g := range v.groups {
			n += g.stripeReads.Load()
		}
		return float64(n)
	})
	r.RegisterFunc("raid_degraded_runs_total", obs.KindCounter, l, func() float64 {
		var n int64
		for _, g := range v.groups {
			n += g.degradedRuns.Load()
		}
		return float64(n)
	})
	r.RegisterFunc("raid_disk_busy_seconds", obs.KindGauge, l, func() float64 {
		return v.DiskBusy().Seconds()
	})
	type registrar interface{ RegisterMetrics(*obs.Registry) }
	for i, g := range v.groups {
		r.RegisterFunc("raid_group_busy_seconds", obs.KindGauge, obs.Labels{"vol": v.name, "group": strconv.Itoa(i)}, func() float64 {
			return g.diskBusy().Seconds()
		})
		for _, d := range g.data {
			if m, ok := d.(registrar); ok {
				m.RegisterMetrics(r)
			}
		}
		if m, ok := g.parity.(registrar); ok {
			m.RegisterMetrics(r)
		}
	}
}

// locate maps a volume block to (group, group-local block).
func (v *Volume) locate(bno int) (*Group, int, error) {
	if bno < 0 || bno >= v.total {
		return nil, 0, fmt.Errorf("%w: %d of %d", storage.ErrOutOfRange, bno, v.total)
	}
	// Linear scan: volumes have a handful of groups.
	for i := len(v.groups) - 1; i >= 0; i-- {
		if bno >= v.starts[i] {
			return v.groups[i], bno - v.starts[i], nil
		}
	}
	return nil, 0, fmt.Errorf("%w: %d", storage.ErrOutOfRange, bno)
}

// ReadBlock implements storage.Device.
func (v *Volume) ReadBlock(ctx context.Context, bno int, buf []byte) error {
	g, gb, err := v.locate(bno)
	if err != nil {
		return err
	}
	if err := g.ReadBlock(ctx, gb, buf); err != nil {
		return err
	}
	v.bytesRead.Add(storage.BlockSize)
	return nil
}

// WriteBlock implements storage.Device.
func (v *Volume) WriteBlock(ctx context.Context, bno int, data []byte) error {
	g, gb, err := v.locate(bno)
	if err != nil {
		return err
	}
	if err := g.WriteBlock(ctx, gb, data); err != nil {
		return err
	}
	v.bytesWritten.Add(storage.BlockSize)
	return nil
}

// CanPrefetch reports whether Prefetch would charge a read for volume
// block bno. A block on a failed disk declines: its read reconstructs
// from the surviving members on demand, so the caller must not count
// the block as read ahead. The group's other disks stream as ever.
func (v *Volume) CanPrefetch(bno int) bool {
	g, gb, err := v.locate(bno)
	if err != nil {
		return false
	}
	disk, _ := g.locate(gb)
	return disk != g.failed
}

// Prefetch charges read time for volume block bno without blocking the
// caller, warming the path for an upcoming demand read.
func (v *Volume) Prefetch(ctx context.Context, bno int) {
	g, gb, err := v.locate(bno)
	if err != nil {
		return
	}
	disk, dblock := g.locate(gb)
	if disk == g.failed {
		return
	}
	g.data[disk].Prefetch(ctx, dblock)
	// Traffic is counted by the cache-warming read that follows a
	// prefetch, not here, so prefetched bytes are not double-counted.
}

// Flush blocks until every member disk's write-behind cache drains.
func (v *Volume) Flush(ctx context.Context) {
	for _, g := range v.groups {
		for _, d := range g.data {
			d.Flush(ctx)
		}
		g.parity.Flush(ctx)
	}
}

// DiskBusy sums the accumulated busy time across all member disks
// (data and parity), for utilization reporting.
func (v *Volume) DiskBusy() time.Duration {
	var total time.Duration
	for _, g := range v.groups {
		total += g.diskBusy()
	}
	return total
}

// diskBusy sums the accumulated busy time of the group's member disks,
// data and parity.
func (g *Group) diskBusy() time.Duration {
	var total time.Duration
	for _, d := range g.data {
		if s := d.Station(); s != nil {
			total += s.Busy()
		}
	}
	if s := g.parity.Station(); s != nil {
		total += s.Busy()
	}
	return total
}

// NumDisks returns the total number of member disks including parity.
func (v *Volume) NumDisks() int {
	n := 0
	for _, g := range v.groups {
		n += len(g.data) + 1
	}
	return n
}
