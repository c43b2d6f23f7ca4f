package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/wafl"
)

// The traced protocol for the volume workloads. It is a separate run
// from the gated one and no end-to-end number comes from it. Five
// passes:
//
//	1. virtual, full width, counting wrappers and the layers' public
//	   counters snapshotted at the edges of every timed interval;
//	2. virtual at 1 and 2 drives, for the scaling curve;
//	3. host, single stream, timing wrappers and both tracers on: the
//	   per-layer host times, then the same pass with recording off for
//	   the tracing overhead;
//	4. host, wafl alone: the tree read and written through wafl with no
//	   engine above it;
//	5. host, full width, the gated run's host protocol, for the
//	   process numbers.

// counters is one reading of every public counter the per-layer
// metrics are built from.
type counters map[string]float64

func (a counters) minus(b counters) counters {
	out := counters{}
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}

func (a counters) add(b counters) {
	for k, v := range b {
		a[k] += v
	}
}

// counters reads the layers' own counters: the obs registry the
// volume and drives registered with, the stations' busy time, and the
// wafl and nvram getters.
func (r *rig) counters() counters {
	c := counters{}
	for _, name := range []string{
		"vdev_seeks_total", "vdev_read_blocks_total", "vdev_write_blocks_total",
		"vdev_busy_seconds", "vdev_retries_total",
		"raid_read_bytes_total", "raid_written_bytes_total", "raid_stripe_reads_total",
		"raid_disk_busy_seconds",
		"tape_busy_seconds", "tape_records_total", "tape_volume_switches_total",
		"tape_media_errors_total", "tape_written_bytes_total", "tape_read_bytes_total",
	} {
		c[name] = r.reg.Sum(name)
	}
	if r.cpu != nil {
		c["cpu_busy_seconds"] = r.cpu.Busy().Seconds()
	}
	c["nvram_appends"] = float64(r.nv.Appends())
	if st := r.nv.Station(); st != nil {
		c["nvram_busy_seconds"] = st.Busy().Seconds()
	}
	hits, misses := r.fs.CacheStats()
	c["wafl_cache_hits"], c["wafl_cache_misses"] = float64(hits), float64(misses)
	c["wafl_cp_count"] = float64(r.fs.CPCount())
	return c
}

// countedSpan is a virtSpan that also sums, over the same timed
// intervals, the counter deltas and the host wall time.
type countedSpan struct {
	virtSpan
	sum  counters
	c0   counters
	h0   time.Time
	host time.Duration
}

func newCountedSpan(r *rig) *countedSpan {
	return &countedSpan{virtSpan: virtSpan{r: r}, sum: counters{}}
}

func (s *countedSpan) start() {
	s.c0 = s.r.counters()
	s.h0 = time.Now()
	s.virtSpan.start()
}

func (s *countedSpan) stop() {
	s.virtSpan.stop()
	s.host += time.Since(s.h0)
	s.sum.add(s.r.counters().minus(s.c0))
}

// layerSet writes per-layer metrics, starting from zero for every
// series: a layer that is not on a workload's path reads 0.
type layerSet struct{ r *run }

func newLayerSet(r *run) layerSet {
	for _, d := range perLayer() {
		r.set(d.Name, 0)
	}
	return layerSet{r}
}

func (l layerSet) set(name, phase string, v float64) { l.r.set(name+"."+phase, v) }

// virtualLayers fills every virtual-clock per-layer series of one
// phase from the counters summed over its timed intervals.
func (l layerSet) virtualLayers(phase string, rg *rig, sp *countedSpan, userBytes int64, drives int) {
	c, el := sp.sum, sp.total.Seconds()
	l.set("sim.cpu_util", phase, ratio(c["cpu_busy_seconds"], el))
	l.set("sim.host_ms_per_virt_s", phase, ratio(float64(sp.host)/float64(time.Millisecond), el))
	l.set("vdev.seeks", phase, c["vdev_seeks_total"])
	l.set("vdev.blocks_per_seek", phase, ratio(c["vdev_read_blocks_total"]+c["vdev_write_blocks_total"], c["vdev_seeks_total"]))
	l.set("vdev.busy_virt_s", phase, c["vdev_busy_seconds"])
	l.set("vdev.retries", phase, c["vdev_retries_total"])
	l.set("raid.disk_util", phase, ratio(c["raid_disk_busy_seconds"], el*float64(rg.vol.NumDisks())))
	l.set("raid.bytes_per_user_byte", phase, ratio(c["raid_read_bytes_total"]+c["raid_written_bytes_total"], float64(userBytes)))
	l.set("raid.stripe_reads", phase, c["raid_stripe_reads_total"])
	l.set("wafl.cache_hit_ratio", phase, ratio(c["wafl_cache_hits"], c["wafl_cache_hits"]+c["wafl_cache_misses"]))
	l.set("wafl.cp_count", phase, c["wafl_cp_count"])
	l.set("nvram.appends", phase, c["nvram_appends"])
	l.set("nvram.busy_virt_s", phase, c["nvram_busy_seconds"])
	l.set("tape.util", phase, ratio(c["tape_busy_seconds"], el*float64(drives)))
	l.set("tape.volume_switches", phase, c["tape_volume_switches_total"])
	l.set("tape.media_errors", phase, c["tape_media_errors_total"])
}

func (w *volumeWL) layers(r *run) error {
	ctx := r.ctx
	l := newLayerSet(r)
	width := w.width()

	rates, err := w.virtualTraced(r, l, width, true)
	if err != nil {
		return err
	}
	if width > 1 {
		for _, d := range []int{1, 2} {
			sweep, err := w.virtualTraced(r, l, d, false)
			if err != nil {
				return err
			}
			for i, phase := range []string{"dump", "restore"} {
				l.set(fmt.Sprintf("pipeline.virt_gbph_%dd", d), phase, sweep[i])
				if d == 1 {
					l.set("pipeline.scaling_4d_over_1d", phase, ratio(rates[i], sweep[i]))
				}
			}
		}
	}
	if err := w.hostTraced(r, l); err != nil {
		return err
	}

	// Pass 5: the host protocol at full width on an unwrapped rig, for
	// the process.* numbers.
	rg, err := buildRig(ctx, w.rigConfig(r, false, width))
	if err != nil {
		return err
	}
	dps, rps, err := w.hostPhases(r, rg)
	if err != nil {
		return err
	}
	processLayers(r, dps, rps)
	return nil
}

// processLayers fills the process.* group: the raw rates the
// calibrated scores are made of, and the memory picture. rps is nil
// for a workload with no restore.
func processLayers(r *run, dps, rps *phaseStats) {
	calib := append([]float64(nil), dps.Calib...)
	r.set("process.dump_host_mibps", median(dps.MiBps))
	r.set("process.dump_host_rel", dps.rel())
	r.note("process.dump_host_rel", dps.speed())
	if rps != nil {
		calib = append(calib, rps.Calib...)
		r.set("process.restore_host_mibps", median(rps.MiBps))
		r.set("process.restore_host_rel", rps.rel())
		r.note("process.restore_host_rel", rps.speed())
	}
	r.set("process.calib_mibps", median(calib))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("process.heap_peak_mib", float64(ms.HeapSys)/(1<<20))
	r.set("process.gc_cpu_share", ms.GCCPUFraction)
}

// virtualTraced is passes 1 and 2: one virtual dump and restore at the
// given width with counting wrappers on. It returns the two phases'
// GB/h; when full is set it also fills the per-layer series.
func (w *volumeWL) virtualTraced(r *run, l layerSet, width int, full bool) ([2]float64, error) {
	var rates [2]float64
	rg, err := buildRig(r.ctx, w.rigConfig(r, true, width))
	if err != nil {
		return rates, err
	}
	ctx := obs.WithMetrics(r.ctx, rg.reg)
	tr := newTracer(false)
	dumpBytes, restBytes := rg.totalUserBytes(), rg.lastUserBytes()

	dsp, dst := newCountedSpan(rg), newStageWindows(rg)
	s, err := w.dump(ctx, rg, width, passOpts{iv: dsp, tr: tr, stages: dst})
	if !r.op("virtual dump", err) {
		return rates, err
	}
	sinkRecs, sinkBytes := tr.tapTotal(".sink")
	journal := tr.counts("catalog.store")
	appends, journalBytes := journal.records.Load(), journal.bytes.Load()
	lookupsDump := tr.counts("catalog.lookup").records.Load()

	rsp, rst := newCountedSpan(rg), newStageWindows(rg)
	err = w.restore(ctx, rg, s, passOpts{iv: rsp, tr: tr, stages: rst})
	if !r.op("virtual restore", err) {
		return rates, err
	}
	if err := r.verify("virtual restore", func() ([]string, error) { return w.verify(r.ctx, rg, s, true) }); err != nil {
		return rates, err
	}
	rates = [2]float64{gbph(dumpBytes, dsp.total), gbph(restBytes, rsp.total)}
	if !full {
		return rates, nil
	}

	l.virtualLayers("dump", rg, dsp, dumpBytes, s.drives())
	l.virtualLayers("restore", rg, rsp, restBytes, s.drives())
	srcRecs, srcBytes := tr.tapTotal(".source")
	l.set("dumpfmt.records", "dump", float64(sinkRecs))
	l.set("dumpfmt.records", "restore", float64(srcRecs))
	l.set("dumpfmt.stream_bytes_per_user_byte", "dump", ratio(float64(sinkBytes), float64(dumpBytes)))
	l.set("dumpfmt.stream_bytes_per_user_byte", "restore", ratio(float64(srcBytes), float64(restBytes)))
	l.set("tape.records", "dump", dsp.sum["tape_records_total"])
	l.set("tape.records", "restore", float64(tr.counts("tape.source").records.Load()+tr.counts("chunk.media.read").records.Load()))
	var maxShard float64
	for _, b := range s.driveBytes {
		if b > maxShard {
			maxShard = b
		}
	}
	l.set("pipeline.shard_skew", "dump", ratio(maxShard, mean(s.driveBytes)))
	if w.kind == kindPhysical {
		l.set("physical.blocks", "dump", float64(s.blocks))
		l.set("physical.blocks", "restore", float64(s.blocks))
	} else {
		l.set("logical.map_virt_s", "dump", dst.seconds("Mapping files and directories"))
		l.set("logical.dirs_virt_s", "dump", dst.seconds("Dumping directories"))
		l.set("logical.files_virt_s", "dump", dst.seconds("Dumping files"))
		l.set("logical.dirs_virt_s", "restore", rst.seconds("Reading directories", "Creating files", "Setting directory attributes"))
		l.set("logical.files_virt_s", "restore", rst.seconds("Filling in data"))
		l.set("logical.files", "dump", float64(s.files))
		l.set("logical.files", "restore", float64(s.filesRestored))
	}
	if w.kind == kindDedup {
		ws := s.wstats
		l.set("chunk.chunks", "dump", float64(ws.Chunks))
		l.set("chunk.hit_ratio", "dump", ratio(float64(ws.Hits), float64(ws.Chunks)))
		l.set("chunk.rewrites", "dump", float64(ws.Rewrites))
		l.set("chunk.stored_bytes_per_raw_byte", "dump", ratio(float64(ws.StoredBytes), float64(ws.RawBytes)))
		l.set("chunk.compressed_share", "dump", ratio(float64(ws.CompressedChunks), float64(ws.CompressedChunks+ws.RawChunks)))
		l.set("catalog.appends", "dump", float64(appends))
		l.set("catalog.journal_bytes_per_user_byte", "dump", ratio(float64(journalBytes), float64(dumpBytes)))
		l.set("catalog.index_lookups", "dump", float64(lookupsDump))
		l.set("catalog.index_lookups", "restore", float64(tr.counts("catalog.lookup").records.Load()-lookupsDump))
	}
	return rates, nil
}

// hostTraced is passes 3 and 4 on one wrapped host rig.
func (w *volumeWL) hostTraced(r *run, l layerSet) error {
	tr := newTracer(true)
	cfg := w.rigConfig(r, false, 1)
	cfg.wrapDev = func(d storage.Device) storage.Device { return tr.device(d, "raid") }
	rg, err := buildRig(r.ctx, cfg)
	if err != nil {
		return err
	}
	dumpMiB, restMiB := mib(rg.totalUserBytes()), mib(rg.lastUserBytes())
	engine := "logical"
	if w.kind == kindPhysical {
		engine = "physical"
	}
	hostLayers := func(phase string, lt layerTimes, userMiB float64) {
		ns := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / userMiB }
		l.set("raid.host_ns_per_mib", phase, ns(lt.total["raid"]))
		l.set("tape.host_ns_per_mib", phase, ns(lt.total["tape"]))
		l.set(engine+".host_self_ns_per_mib", phase, ns(lt.self[engine]))
		l.set("chunk.host_self_ns_per_mib", phase, ns(lt.self["chunk"]))
		l.set("chunk.media_host_ns_per_mib", phase, ns(lt.total["chunk.media"]))
		if n := lt.calls["catalog.store"]; n > 0 && phase == "dump" {
			l.set("catalog.host_ns_per_append", phase, float64(lt.total["catalog.store"].Nanoseconds())/float64(n))
		}
	}

	// Pass 3, dump: one single-stream dump with every wrapper timing.
	dump := func() (*streams, time.Duration, error) {
		c, end := tr.phase(r.ctx, "bench.dump")
		defer end()
		var m meter
		s, err := w.dump(c, rg, 0, passOpts{iv: &m, tr: tr})
		return s, m.timed, err
	}
	runtime.GC()
	mark := tr.mark()
	s, _, err := dump()
	if !r.op("traced dump", err) {
		return err
	}
	hostLayers("dump", tr.selfTimes(mark), dumpMiB)

	// Tracing overhead: the same pass with recording on and off by
	// turns; the wrappers stay in place, so what is compared is the
	// cost of taking the spans, the benchmark's and the repo's.
	var on, off []float64
	for t0 := time.Now(); len(on) < 5 && (len(on) == 0 || time.Since(t0) < 3*time.Second); {
		for _, timing := range []bool{false, true} {
			tr.timing.Store(timing)
			runtime.GC()
			var d time.Duration
			s, d, err = dump()
			if !r.op("traced dump", err) {
				return err
			}
			if timing {
				on = append(on, d.Seconds())
			} else {
				off = append(off, d.Seconds())
			}
		}
	}
	r.set("obs.trace_overhead_rel", overheadOf(on, off))

	// Pass 4, read side: the newest snapshot's tree read through wafl
	// with nothing above it. Its self time is wafl's own.
	var files []treeFile
	if w.kind != kindPhysical {
		mark = tr.mark()
		c, end := tr.phase(r.ctx, "bench.wafl-read")
		done := tr.span("wafl", "tree read")
		files, err = readTree(c, rg)
		done()
		end()
		if err != nil {
			return err
		}
		l.set("wafl.host_self_ns_per_mib", "dump", float64(tr.selfTimes(mark).self["wafl"].Nanoseconds())/mib(treeBytes(files)))
	}

	// Pass 3, restore: from the last single-stream dump.
	runtime.GC()
	mark = tr.mark()
	c, end := tr.phase(r.ctx, "bench.restore")
	err = w.restore(c, rg, s, passOpts{iv: &meter{}, tr: tr})
	end()
	if !r.op("traced restore", err) {
		return err
	}
	hostLayers("restore", tr.selfTimes(mark), restMiB)
	if err := r.verify("traced restore", func() ([]string, error) { return w.verify(r.ctx, rg, s, true) }); err != nil {
		return err
	}

	// Pass 4, write side: the same files written back through wafl
	// onto a wiped volume, then one consistency point.
	if w.kind != kindPhysical {
		if err := rg.wipe(r.ctx); err != nil {
			return err
		}
		runtime.GC()
		mark = tr.mark()
		c, end := tr.phase(r.ctx, "bench.wafl-write")
		done := tr.span("wafl", "tree write")
		err = writeTree(c, rg.fs, files)
		done()
		end()
		if err != nil {
			return err
		}
		l.set("wafl.host_self_ns_per_mib", "restore", float64(tr.selfTimes(mark).self["wafl"].Nanoseconds())/mib(treeBytes(files)))
	}
	r.set("obs.spans", float64(tr.count()))
	if r.traceOut != "" {
		return tr.writeChrome(r.traceOut)
	}
	return nil
}

// treeFile is one regular file of the tree, read into memory.
type treeFile struct {
	path string
	data []byte
}

func treeBytes(files []treeFile) int64 {
	var n int64
	for _, f := range files {
		n += int64(len(f.data))
	}
	return n
}

// readTree reads every regular file under the newest snapshot's root.
func readTree(ctx context.Context, rg *rig) ([]treeFile, error) {
	view, err := rg.fs.SnapshotView(rg.lastSnap())
	if err != nil {
		return nil, err
	}
	root, err := view.Namei(ctx, "/")
	if err != nil {
		return nil, err
	}
	var files []treeFile
	seen := map[wafl.Inum]bool{}
	var walk func(ino wafl.Inum, rel string) error
	walk = func(ino wafl.Inum, rel string) error {
		inode, err := view.GetInode(ctx, ino)
		if err != nil {
			return err
		}
		switch {
		case wafl.IsDir(inode.Mode):
			ents, err := view.Readdir(ctx, ino)
			if err != nil {
				return err
			}
			for _, e := range ents {
				if e.Name == "." || e.Name == ".." {
					continue
				}
				if err := walk(e.Ino, rel+"/"+e.Name); err != nil {
					return err
				}
			}
		case wafl.IsSymlink(inode.Mode) || seen[ino]:
			// links carry no data of their own
		default:
			seen[ino] = true
			buf := make([]byte, inode.Size)
			if _, err := view.ReadAt(ctx, ino, 0, buf); err != nil {
				return err
			}
			files = append(files, treeFile{path: rel, data: buf})
		}
		return nil
	}
	return files, walk(root, "")
}

// writeTree writes files onto fs and commits them.
func writeTree(ctx context.Context, fs *wafl.FS, files []treeFile) error {
	for _, f := range files {
		if _, err := fs.WriteFile(ctx, f.path, f.data, 0644); err != nil {
			return err
		}
	}
	return fs.CP(ctx)
}
