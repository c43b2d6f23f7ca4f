// Package mirror builds volume replication on top of incremental
// image dumps — the paper's §6 future direction: "The image
// dump/restore technology also has potential application to remote
// mirroring and replication of volumes."
//
// A Mirror pairs a source filesystem with a target volume. The first
// Sync ships a full image; every later Sync creates a fresh source
// snapshot, ships only the block delta since the previous mirror
// snapshot (the Table 1 set difference), applies it to the target, and
// retires the older mirror snapshot. The transfer moves through a
// simulated network link so the benchmark harness can measure
// replication lag versus link bandwidth. The target is mountable
// read-only between syncs and is always a crash-consistent
// point-in-time image.
package mirror

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/physical"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/wafl"
)

// Link models the replication network: records shipped through it
// charge transfer time against a station. A nil *Link ships instantly.
type Link struct {
	station *sim.Station
	rate    float64 // bytes per second
	perRec  time.Duration
	sent    int64
}

// NewLink creates a link on env with the given bandwidth.
func NewLink(env *sim.Env, name string, bytesPerSec float64, perRecord time.Duration) *Link {
	l := &Link{rate: bytesPerSec, perRec: perRecord}
	if env != nil {
		l.station = sim.NewStation(env, name, 200*time.Millisecond)
	}
	return l
}

// Sent returns total bytes shipped.
func (l *Link) Sent() int64 {
	if l == nil {
		return 0
	}
	return l.sent
}

// pipe buffers records in memory, charging link time on write.
type pipe struct {
	link *Link
	proc *sim.Proc
	recs [][]byte
	pos  int
}

func (p *pipe) WriteRecord(data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	p.recs = append(p.recs, cp)
	if p.link != nil {
		p.link.sent += int64(len(data))
		if p.link.station != nil && p.proc != nil {
			p.link.station.Async(p.proc, p.link.perRec+sim.TimeFor(len(data), p.link.rate))
		}
	}
	return nil
}

func (p *pipe) NextVolume() error { return fmt.Errorf("mirror: network pipe has no volumes") }

func (p *pipe) ReadRecord() ([]byte, error) {
	if p.pos >= len(p.recs) {
		return nil, io.EOF
	}
	r := p.recs[p.pos]
	p.pos++
	return r, nil
}

// Mirror replicates a source filesystem onto a target volume.
type Mirror struct {
	src    *wafl.FS
	srcVol storage.Device
	dst    storage.Device
	link   *Link
	costs  physical.Costs

	serial   int
	lastSnap string // the snapshot the target currently matches
	syncs    int
	blocks   int64
}

// New creates a mirror relationship. link may be nil (instant
// transfer); costs may be the zero value.
func New(src *wafl.FS, srcVol, dst storage.Device, link *Link, costs physical.Costs) *Mirror {
	return &Mirror{src: src, srcVol: srcVol, dst: dst, link: link, costs: costs}
}

// LastSnapshot returns the source snapshot the target matches, or "".
func (m *Mirror) LastSnapshot() string { return m.lastSnap }

// Stats returns syncs performed and total blocks shipped.
func (m *Mirror) Stats() (syncs int, blocks int64) { return m.syncs, m.blocks }

// Sync brings the target up to date: a full transfer the first time,
// an incremental thereafter. It returns the number of blocks shipped.
func (m *Mirror) Sync(ctx context.Context) (int, error) {
	m.serial++
	name := fmt.Sprintf("mirror.%d", m.serial)
	if err := m.src.CreateSnapshot(ctx, name); err != nil {
		return 0, err
	}
	p := &pipe{link: m.link, proc: sim.ProcFrom(ctx)}
	stats, err := physical.Dump(ctx, physical.DumpOptions{
		FS: m.src, Vol: m.srcVol,
		SnapName: name, BaseSnapName: m.lastSnap,
		Sink: p, Costs: m.costs,
	})
	if err != nil {
		m.src.DeleteSnapshot(ctx, name)
		return 0, err
	}
	_, err = physical.Restore(ctx, physical.RestoreOptions{
		Vol: m.dst, Source: p, Costs: m.costs,
		ExpectIncremental: m.lastSnap != "",
	})
	if err != nil {
		return 0, err
	}
	// Retire the previous mirror snapshot; keep the new one as the
	// next incremental's base.
	if m.lastSnap != "" {
		if err := m.src.DeleteSnapshot(ctx, m.lastSnap); err != nil {
			return 0, err
		}
	}
	m.lastSnap = name
	m.syncs++
	m.blocks += int64(stats.BlocksDumped)
	return stats.BlocksDumped, nil
}
