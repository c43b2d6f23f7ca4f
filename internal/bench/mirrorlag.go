package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/logical"
	"repro/internal/ndmp"
	"repro/internal/physical"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/tape"
	"repro/internal/transport"
	"repro/internal/workload"
)

// MirrorPoint is one row of the replication experiment (§6 extension):
// how long the initial transfer and a steady-state incremental sync
// take over a link of the given bandwidth.
type MirrorPoint struct {
	LinkMBps    float64
	InitialSync time.Duration
	InitialBlk  int
	SteadySync  time.Duration
	SteadyBlk   int
}

// RunMirrorLag measures volume replication built on incremental image
// dumps across a sweep of link bandwidths: the initial sync moves the
// whole volume, the steady-state sync only the snapshot delta after a
// fixed slice of churn — the asymmetry that makes image-based
// mirroring practical over thin links.
func RunMirrorLag(ctx context.Context, cfg Config, linkMBps []float64) ([]MirrorPoint, error) {
	var out []MirrorPoint
	for _, rate := range linkMBps {
		f, err := buildFiler(ctx, cfg, "prod", 1, nil, nil)
		if err != nil {
			return nil, err
		}
		paths, err := workload.Generate(ctx, f.FS, workload.Spec{
			Seed: cfg.Seed, Files: cfg.DataMB << 20 / (64 << 10), DirFanout: 10,
			MeanFileSize: 64 << 10,
		})
		if err != nil {
			return nil, err
		}
		m := newMirror(f, rate)

		pt := MirrorPoint{LinkMBps: rate}
		meters := metersFor(f)
		sync := func(name string, blocks *int) (time.Duration, error) {
			op, err := measure(ctx, meters, fmt.Sprintf("%s at %.1f MB/s", name, rate), func(c context.Context, rec *Recorder) (int64, error) {
				rec.Begin(name)
				n, err := m.sync(c)
				*blocks = n
				return 0, err
			})
			return op.Elapsed, err
		}
		if pt.InitialSync, err = sync("initial mirror sync", &pt.InitialBlk); err != nil {
			return nil, err
		}
		// Steady state: ~3% churn, then sync the delta.
		if _, err := workload.Age(ctx, f.FS, paths, workload.AgeSpec{
			Seed: cfg.Seed + 5, Rounds: 1, ChurnPerRound: len(paths) / 30,
			MeanFileSize: 64 << 10,
		}); err != nil {
			return nil, err
		}
		if pt.SteadySync, err = sync("steady mirror sync", &pt.SteadyBlk); err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// mirror replicates a filer's volume onto a standby volume with what
// the system ships for pushing a dump: an image engine dump, incremental
// to the previous sync's snapshot, through an ndmp session over a
// simulated link to a tape host, then RestoreSet of the landed stream
// onto the standby. Between syncs the standby is a crash-consistent
// image of the last synced snapshot.
type mirror struct {
	f       *core.Filer
	standby *storage.MemDevice
	link    *transport.Link
	drive   *tape.Drive // where the last session's stream landed
	serial  int
	last    string // the source snapshot the standby matches
}

// newMirror pairs f with a blank standby across a link of the given
// bandwidth. The tape host lands each session on a fresh untimed drive:
// what a sync waits on is the wire, not the media.
func newMirror(f *core.Filer, linkMBps float64) *mirror {
	m := &mirror{
		f:       f,
		standby: storage.NewMemDevice(f.Vol.NumBlocks()),
		link:    transport.NewLink(transport.Params{Latency: time.Millisecond, Rate: linkMBps * (1 << 20)}),
	}
	host := ndmp.NewHost(func(h ndmp.Hello) (ndmp.Sink, error) {
		name := fmt.Sprintf("standby%d", h.Session)
		m.drive = tape.NewDrive(nil, name, tape.DefaultParams())
		m.drive.AddCartridges(tape.NewCartridge(name))
		if err := m.drive.Load(nil); err != nil {
			return nil, err
		}
		return &logical.DriveSink{Drive: m.drive}, nil
	})
	m.link.B().Attach(host.NewConn().HandleFrame)
	return m
}

// sync snapshots the source as mirror.N, brings the standby up to it
// and retires the previous mirror snapshot, so exactly one stays on the
// source as the next sync's base. It returns the blocks shipped.
func (m *mirror) sync(ctx context.Context) (int, error) {
	m.serial++
	name := fmt.Sprintf("mirror.%d", m.serial)
	if err := m.f.FS.CreateSnapshot(ctx, name); err != nil {
		return 0, err
	}
	m.link.A().Bind(sim.ProcFrom(ctx))
	sess, err := ndmp.Dial(func() (transport.Conn, error) { return m.link.A(), nil },
		ndmp.Config{Kind: ndmp.KindImage, Session: uint64(m.serial), Level: -1, Ctx: ctx})
	if err != nil {
		return 0, err
	}
	job := engine.NewImage(physical.DumpOptions{
		FS: m.f.FS, Vol: m.f.Vol, SnapName: name, BaseSnapName: m.last, Costs: m.f.Config.PhysCosts,
	})
	if err := job.To(ctx, sess); err != nil {
		return 0, err
	}
	if err := sess.Close(); err != nil {
		return 0, err
	}
	m.drive.Rewind(nil)
	landed := []stream.Source{logical.NewDriveSource(m.drive, nil, 1)}
	if _, err := engine.RestoreSet(ctx, catalog.Image, engine.Target{Vol: m.standby, Costs: m.f.Config.PhysCosts},
		landed, m.last != ""); err != nil {
		return 0, err
	}
	if m.last != "" {
		if err := m.f.FS.DeleteSnapshot(ctx, m.last); err != nil {
			return 0, err
		}
	}
	m.last = name
	return job.ImageStats.BlocksDumped, nil
}
