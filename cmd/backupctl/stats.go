// backupctl stats: run an instrumented backup workload and report
// what the observability layer saw — the zero-setup way to look at the
// stack's metrics and traces, and the smoke test CI runs (-check).
//
//	backupctl stats -mb 8
//	backupctl stats -mb 8 -trace obs.json -slow 100ms
//	backupctl stats -check
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/obs"
)

// traceToFile returns ctx carrying a tracer, and the flush that writes
// its spans to path as a Chrome trace on the way out; with no path both
// are no-ops. The file is created eagerly, to fail before the work, not
// after.
func traceToFile(ctx context.Context, path string) (context.Context, func(), error) {
	if path == "" {
		return ctx, func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	tr := obs.NewTracer()
	flush := func() {
		if err := tr.WriteChromeTrace(f); err != nil {
			fmt.Fprintf(os.Stderr, "backupctl: writing trace %s: %v\n", path, err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "backupctl: wrote %d spans to %s\n", tr.SpanCount(), path)
	}
	return obs.WithTracer(ctx, tr), flush, nil
}

func statsCommand(ctx context.Context, rest []string) error {
	set := newFlagSet("stats")
	mb := set.Int("mb", 8, "dataset size in MiB")
	seed := set.Int64("seed", 1999, "workload seed")
	trace := set.String("trace", "", "write Chrome trace JSON to this file")
	prom := set.String("prom", "", "write Prometheus text metrics to this file instead of stdout")
	slow := set.Duration("slow", 0, "log spans slower than this (virtual time; 0 = off)")
	check := set.Bool("check", false, "validate the trace and mandatory metrics (CI smoke)")
	if err := set.Parse(rest); err != nil {
		return err
	}

	tracer := obs.NewTracer()
	if *slow > 0 {
		tracer.SlowThreshold = *slow
		tracer.SlowLog = func(msg string) { fmt.Fprintln(os.Stderr, "backupctl:", msg) }
	}
	rep, err := bench.RunObs(ctx, bench.Config{DataMB: *mb, Seed: *seed, AgeRounds: 2}, tracer)
	if err != nil {
		return err
	}

	fmt.Printf("logical dump: %d files, %d dirs, %d bytes\n",
		rep.Logical.FilesDumped, rep.Logical.DirsDumped, rep.Logical.BytesWritten)
	fmt.Printf("image dump:   %d blocks, %d bytes (generation %d)\n",
		rep.Image.BlocksDumped, rep.Image.BytesWritten, rep.Image.Gen)
	storedRaw := rep.DedupPrime.RawBytes + rep.DedupRepeat.RawBytes -
		rep.DedupPrime.HitBytes - rep.DedupRepeat.HitBytes
	compress := 1.0
	if stored := rep.DedupPrime.StoredBytes + rep.DedupRepeat.StoredBytes; stored > 0 {
		compress = float64(storedRaw) / float64(stored)
	}
	fmt.Printf("dedup:        %d hits, %d misses, %d bytes saved, compress %.2fx\n",
		rep.DedupPrime.Hits+rep.DedupRepeat.Hits,
		rep.DedupPrime.Misses+rep.DedupRepeat.Misses,
		rep.DedupPrime.HitBytes+rep.DedupRepeat.HitBytes, compress)

	var promOut bytes.Buffer
	if err := rep.Registry.WritePrometheus(&promOut); err != nil {
		return err
	}
	if *prom != "" {
		if err := os.WriteFile(*prom, promOut.Bytes(), 0644); err != nil {
			return err
		}
		fmt.Printf("metrics -> %s\n", *prom)
	} else {
		os.Stdout.Write(promOut.Bytes())
	}

	var traceJSON bytes.Buffer
	if err := tracer.WriteChromeTrace(&traceJSON); err != nil {
		return err
	}
	if *trace != "" {
		if err := os.WriteFile(*trace, traceJSON.Bytes(), 0644); err != nil {
			return err
		}
		fmt.Printf("trace: %d spans -> %s\n", tracer.SpanCount(), *trace)
	}

	if *check {
		if err := checkTrace(traceJSON.Bytes()); err != nil {
			return fmt.Errorf("stats -check: trace: %w", err)
		}
		if err := checkMetrics(rep); err != nil {
			return fmt.Errorf("stats -check: metrics: %w", err)
		}
		fmt.Println("stats check OK: trace parses with nested phases, mandatory metrics present and consistent")
	}
	return nil
}

// chromeEvent mirrors the trace_event fields checkTrace cares about.
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// checkTrace validates that the export is loadable Chrome trace JSON
// with per-phase spans nested (in time and thread) inside each
// engine's root span.
func checkTrace(raw []byte) error {
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("not valid trace JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("trace has no events")
	}
	find := func(name string) *chromeEvent {
		for i := range doc.TraceEvents {
			e := &doc.TraceEvents[i]
			if e.Ph == "X" && e.Name == name {
				return e
			}
		}
		return nil
	}
	nested := func(parent, child string) error {
		p, c := find(parent), find(child)
		if p == nil {
			return fmt.Errorf("no %q span", parent)
		}
		if c == nil {
			return fmt.Errorf("no %q span", child)
		}
		if c.Tid != p.Tid || c.Ts < p.Ts || c.Ts+c.Dur > p.Ts+p.Dur {
			return fmt.Errorf("%q [%v,%v) not nested in %q [%v,%v)",
				child, c.Ts, c.Ts+c.Dur, parent, p.Ts, p.Ts+p.Dur)
		}
		return nil
	}
	for _, phase := range []string{"logical.phase12_map", "logical.phase3_dirs", "logical.phase4_files"} {
		if err := nested("logical.dump", phase); err != nil {
			return err
		}
	}
	if find("physical.dump") == nil {
		return fmt.Errorf("no %q span", "physical.dump")
	}
	return nil
}

// checkMetrics validates that the registry saw every layer move and
// that its engine counters agree with the engines' own statistics.
func checkMetrics(rep *bench.ObsReport) error {
	reg := rep.Registry
	nonzero := []string{
		"vdev_read_blocks_total",
		"vdev_write_blocks_total",
		"raid_read_bytes_total",
		"raid_written_bytes_total",
		"tape_written_bytes_total",
		"tape_records_total",
		"sim_cpu_busy_seconds",
		"logical_dump_files_total",
		"logical_dump_bytes_total",
		"physical_dump_blocks_total",
		"physical_dump_bytes_total",
		"chunk_hits_total",
		"chunk_misses_total",
		"chunk_bytes_saved_total",
		"chunk_raw_bytes_total",
		"chunk_stored_bytes_total",
		"chunk_index_entries",
	}
	for _, name := range nonzero {
		if !reg.Has(name) {
			return fmt.Errorf("metric %s missing", name)
		}
		if reg.Sum(name) == 0 {
			return fmt.Errorf("metric %s is zero", name)
		}
	}
	agree := []struct {
		name string
		want float64
	}{
		{"logical_dump_files_total", float64(rep.Logical.FilesDumped)},
		{"logical_dump_dirs_total", float64(rep.Logical.DirsDumped)},
		{"logical_dump_bytes_total", float64(rep.Logical.BytesWritten)},
		{"physical_dump_blocks_total", float64(rep.Image.BlocksDumped)},
		{"physical_dump_bytes_total", float64(rep.Image.BytesWritten)},
		{"chunk_hits_total", float64(rep.DedupPrime.Hits + rep.DedupRepeat.Hits)},
		{"chunk_misses_total", float64(rep.DedupPrime.Misses + rep.DedupRepeat.Misses)},
		{"chunk_bytes_saved_total", float64(rep.DedupPrime.HitBytes + rep.DedupRepeat.HitBytes)},
		{"chunk_raw_bytes_total", float64(rep.DedupPrime.RawBytes + rep.DedupRepeat.RawBytes)},
		{"chunk_stored_bytes_total", float64(rep.DedupPrime.StoredBytes + rep.DedupRepeat.StoredBytes)},
	}
	for _, a := range agree {
		if got := reg.Sum(a.name); got != a.want {
			return fmt.Errorf("%s = %v, engine stats say %v", a.name, got, a.want)
		}
	}
	return nil
}
