package logical

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/tape"
	"repro/internal/vdev"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// tapDevice sits where the benchmark's device wrapper sits, between
// wafl and the volume, and records what crosses the seam: every
// Prefetch in order, and every block read that a simulated process
// waited for. The cache-warming read behind a prefetch carries no
// process, so nothing is charged for it: those are counted for the
// blocks watch picks out. Embedding the volume passes its RAID group
// geometry through to the filesystem, which the benchmark's wrapper
// does not.
type tapDevice struct {
	*raid.Volume
	prefetched []int
	syncReads  int
	watch      func(bno int) bool
	freeReads  int
}

func (d *tapDevice) ReadBlock(ctx context.Context, bno int, buf []byte) error {
	if sim.ProcFrom(ctx) != nil {
		d.syncReads++
	} else if d.watch != nil && d.watch(bno) {
		d.freeReads++
	}
	return d.Volume.ReadBlock(ctx, bno, buf)
}

func (d *tapDevice) Prefetch(ctx context.Context, bno int) {
	d.prefetched = append(d.prefetched, bno)
	d.Volume.Prefetch(ctx, bno)
}

// simRig is an aged filesystem on a simulated RAID volume of the
// benchmark's shape, frozen in a snapshot, with tape drives to dump it
// to.
type simRig struct {
	env   *sim.Env
	dev   *tapDevice
	fs    *wafl.FS
	view  *wafl.View
	tapes []*tape.Drive
}

func newSimRig(t *testing.T, dataMB, drives int) *simRig {
	t.Helper()
	r := &simRig{env: sim.NewEnv()}
	vol, err := raid.Build(r.env, "vol", raid.Config{
		Groups: 3, DataDisksPerGroup: 10,
		BlocksPerDisk: dataMB << 20 / wafl.BlockSize * 4 / 30,
		DiskParams:    vdev.DefaultParams(),
	})
	if err != nil {
		t.Fatal(err)
	}
	r.dev = &tapDevice{Volume: vol}
	fs, err := wafl.Mkfs(ctx, r.dev, nil, wafl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const mean = 64 << 10
	files := dataMB << 20 / mean
	paths, err := workload.Generate(ctx, fs, workload.Spec{
		Seed: 1999, Files: files, DirFanout: 12, MeanFileSize: mean,
		Symlinks: files / 40, Hardlinks: files / 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Age(ctx, fs, paths, workload.AgeSpec{
		Seed: 2006, Rounds: 3, ChurnPerRound: files / 3, MeanFileSize: mean,
	}); err != nil {
		t.Fatal(err)
	}
	if err := fs.CreateSnapshot(ctx, "s"); err != nil {
		t.Fatal(err)
	}
	// Remounted, so the dump starts with a cold cache and a CPU to pay.
	costs := wafl.DefaultCosts()
	costs.CPU = sim.NewStation(r.env, "cpu", 0)
	if fs, err = wafl.Mount(ctx, r.dev, nil, wafl.Options{Costs: costs, Env: r.env}); err != nil {
		t.Fatal(err)
	}
	r.fs = fs
	if r.view, err = fs.SnapshotView("s"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < drives; i++ {
		d := tape.NewDrive(r.env, fmt.Sprintf("tape%d", i), tape.DefaultParams())
		d.AddCartridges(tape.NewCartridge(fmt.Sprintf("c%d", i)))
		r.tapes = append(r.tapes, d)
	}
	return r
}

// dump runs one level-0 dump of the snapshot to all the rig's drives,
// three readers a stream, as a simulated process, and returns the
// virtual time Dump took. prepare, if set, adjusts the options on the
// dumping process.
func (r *simRig) dump(t *testing.T, prepare func(c context.Context, o *DumpOptions) context.Context) (stats *DumpStats, elapsed time.Duration, err error) {
	t.Helper()
	r.env.Spawn("dump", func(p *sim.Proc) {
		c := sim.WithProc(ctx, p)
		o := DumpOptions{View: r.view, Label: "rig", ReadAhead: 16, Readers: 3}
		for _, d := range r.tapes {
			if err = d.Load(p); err != nil {
				return
			}
			o.Sinks = append(o.Sinks, &DriveSink{Drive: d, Proc: p})
		}
		if prepare != nil {
			c = prepare(c, &o)
		}
		start := p.Now()
		stats, err = Dump(c, o)
		elapsed = p.Now() - start
	})
	r.env.Run() // panics if the dump leaves a process parked
	return stats, elapsed, err
}

// TestReadAheadLeavesNoDemandReads: on a fault-free simulated volume, 4
// sinks × 3 readers, the dump addresses everything it can through the
// read-ahead: the reads a process had to wait for are at most 2 % of
// all device reads, and nothing is read ahead twice.
func TestReadAheadLeavesNoDemandReads(t *testing.T) {
	r := newSimRig(t, 16, 4)
	if _, _, err := r.dump(t, nil); err != nil {
		t.Fatal(err)
	}
	ahead, total := len(r.dev.prefetched), len(r.dev.prefetched)+r.dev.syncReads
	t.Logf("%d device reads, %d waited for", total, r.dev.syncReads)
	if r.dev.syncReads*50 > total {
		t.Errorf("%d of %d device reads were synchronous, want at most 2%%", r.dev.syncReads, total)
	}
	slices.Sort(r.dev.prefetched)
	if distinct := len(slices.Compact(r.dev.prefetched)); distinct != ahead {
		t.Errorf("%d blocks read ahead in %d prefetches", distinct, ahead)
	}
}

// TestReadAheadOffIssuesNothing: ReadAhead 0 turns the engine's
// read-ahead off, Phase I's batches included.
func TestReadAheadOffIssuesNothing(t *testing.T) {
	r := newSimRig(t, 4, 2)
	_, _, err := r.dump(t, func(c context.Context, o *DumpOptions) context.Context {
		o.ReadAhead = 0
		return c
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(r.dev.prefetched); n != 0 {
		t.Errorf("ReadAhead 0 issued %d prefetches", n)
	}
}

// TestDegradedDumpPaysForReconstruction: a degraded RAID group declines
// the prefetches of the failed disk's blocks, and a declined prefetch
// must not warm the cache: the read that would do it carries no
// process, so the reconstruction behind it would run off the clock and
// the demand read after it would hit the cache for free. Those blocks
// are demand-read instead, so the same dump of the same volume with one
// data disk failed takes strictly longer than healthy and keeps the
// parity disk, which only reconstruction reads, busy.
// (raid_reconstructs_total counts latent-sector reconstructions, not
// reads of a failed disk, so it cannot witness this.) The group's nine
// healthy disks go on streaming: what the degraded dump pays is one
// synchronous reconstruction for each of the failed disk's blocks (4.0x
// the healthy dump here), not a demand read for every block of the
// group (8.4x).
func TestDegradedDumpPaysForReconstruction(t *testing.T) {
	healthy := newSimRig(t, 8, 4)
	_, base, err := healthy.dump(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	degraded := newSimRig(t, 8, 4)
	const group, disk = 1, 3
	g := degraded.dev.Groups()[group]
	if err := g.FailDisk(disk); err != nil {
		t.Fatal(err)
	}
	first := degraded.dev.GroupStarts()[group]
	onFailed := func(bno int) bool {
		return bno >= first && bno < first+g.NumBlocks() && (bno-first)%len(g.Data()) == disk
	}
	held := 0
	for bno := first; bno < first+g.NumBlocks(); bno++ {
		if onFailed(bno) && degraded.fs.BlockMapWord(wafl.BlockNo(bno)) != 0 {
			held++
		}
	}
	if held < 20 {
		t.Fatalf("the failed disk holds %d blocks of the snapshot: the rig no longer tests anything", held)
	}
	degraded.dev.watch = onFailed
	_, slow, err := degraded.dump(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	parity := g.Parity().Station().Busy()
	t.Logf("healthy %v, degraded %v (%.2fx), parity disk busy %v, %d snapshot blocks on the failed disk",
		base, slow, float64(slow)/float64(base), parity, held)
	if n := degraded.dev.freeReads; n != 0 {
		t.Errorf("%d blocks of the failed disk were read into the cache off the clock", n)
	}
	if parity == 0 {
		t.Error("degraded dump charged the parity disk nothing")
	}
	if slow <= base {
		t.Errorf("degraded dump took %v, healthy %v", slow, base)
	}
	if slow > 5*base {
		t.Errorf("degraded dump took %v, over five times the healthy %v: the surviving disks have stopped streaming", slow, base)
	}
}

// TestDumpBusiesEveryGroup: a four-stream dump of an aged volume keeps
// all three RAID groups busy, none with much more than its third of
// the disk time. (Allocated from one cursor, this dataset sat in the
// first group, which carried all of it.) Files go to the groups in
// turn whatever their size, and a tenth of this tree's files hold most
// of its blocks: 16 MB has enough of them to even out, which the 8 MB
// of the other tests does not (26/47/27 %).
func TestDumpBusiesEveryGroup(t *testing.T) {
	r := newSimRig(t, 16, 4)
	reg := obs.NewRegistry()
	r.dev.RegisterMetrics(reg)
	if _, _, err := r.dump(t, nil); err != nil {
		t.Fatal(err)
	}
	total := reg.Sum("raid_group_busy_seconds")
	if vol, _ := reg.Value("raid_disk_busy_seconds", obs.Labels{"vol": "vol"}); total == 0 || math.Abs(total-vol) > 1e-9*vol {
		t.Fatalf("groups busy %vs in all, volume %vs", total, vol)
	}
	for g := range r.dev.Groups() {
		busy, ok := reg.Value("raid_group_busy_seconds", obs.Labels{"vol": "vol", "group": strconv.Itoa(g)})
		t.Logf("group %d: %.2fs busy, %.0f%% of the volume's", g, busy, 100*busy/total)
		if !ok || busy > 0.45*total {
			t.Errorf("group %d carries %.2fs of the volume's %.2fs of disk time", g, busy, total)
		}
	}
}

// TestReadAheadSurvivesDeadSink: one drive of four going offline
// mid-dump tears its own shard down — its readers may be the ones
// issuing, or parked behind, a batch — and leaves no process parked:
// the siblings finish and the simulation drains.
func TestReadAheadSurvivesDeadSink(t *testing.T) {
	for _, after := range []int{3, 40, 150} {
		r := newSimRig(t, 8, 4)
		r.tapes[1].InjectFaults(tape.FaultConfig{OfflineAfterRecords: after})
		stats, _, err := r.dump(t, nil)
		if !errors.Is(err, tape.ErrOffline) {
			t.Fatalf("offline after %d records: dump error %v, want drive offline", after, err)
		}
		for k, s := range stats.ShardResults {
			if (s.Err != nil) != (k == 1) {
				t.Errorf("offline after %d records: shard %d ended with %v", after, k, s.Err)
			}
		}
	}
}

// cancelSink cancels the dump's context once it has taken n records.
type cancelSink struct {
	stream.Sink
	n      int
	cancel context.CancelFunc
}

func (s *cancelSink) WriteRecord(data []byte) error {
	if s.n--; s.n == 0 {
		s.cancel()
	}
	return s.Sink.WriteRecord(data)
}

func (s *cancelSink) BindProc(p *sim.Proc) *sim.Proc { return stream.BindProc(s.Sink, p) }

// TestReadAheadUnwindsOnCancel: cancelling the dump's context mid-flight
// unwinds every reader, issuing or waiting, on every shard.
func TestReadAheadUnwindsOnCancel(t *testing.T) {
	for _, after := range []int{5, 60} {
		r := newSimRig(t, 8, 4)
		_, _, err := r.dump(t, func(c context.Context, o *DumpOptions) context.Context {
			c, cancel := context.WithCancel(c)
			o.Sinks[2] = &cancelSink{Sink: o.Sinks[2], n: after, cancel: cancel}
			return c
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel after %d records: dump error %v, want context canceled", after, err)
		}
	}
}

// TestReadAheadSharedStateUntimed drives the one read-ahead state from
// real goroutines — 4 sinks × 3 readers, a cache small enough that the
// dump needs many batches — so `make race` covers it, and checks the
// streams restore to the source tree.
func TestReadAheadSharedStateUntimed(t *testing.T) {
	src, err := wafl.Mkfs(ctx, storage.NewMemDevice(16384), nil, wafl.Options{CacheBlocks: 128})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Generate(ctx, src, workload.Spec{
		Seed: 74, Files: 120, DirFanout: 6, MeanFileSize: 24 << 10, Symlinks: 3, Hardlinks: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if err := src.CreateSnapshot(ctx, "s"); err != nil {
		t.Fatal(err)
	}
	sv, _ := src.SnapshotView("s")
	sinks := make([]stream.Sink, 4)
	mem := make([]*memSink, len(sinks))
	for k := range sinks {
		mem[k] = &memSink{}
		sinks[k] = mem[k]
	}
	if _, err := Dump(ctx, DumpOptions{View: sv, Sinks: sinks, Label: "race", ReadAhead: 16, Readers: 3}); err != nil {
		t.Fatal(err)
	}
	dst := newFS(t, 16384)
	for k := range mem {
		if _, err := Restore(ctx, RestoreOptions{FS: dst, Source: mem[k].source(), KernelIntegrated: true}); err != nil {
			t.Fatalf("restoring shard %d: %v", k, err)
		}
	}
	assertTreesEqual(t, digests(t, sv, "/"), digests(t, dst.ActiveView(), "/"))
}
