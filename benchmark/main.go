// Command benchmark is the repo's one benchmark: four workloads, each
// on two clocks over the same generated inputs. See README.md.
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1
//
// prints a table of every metric by name and unit and, as the last
// line of standard output, the one JSON object the driver reads.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// run is one invocation's state: parameters in, metrics and the
// attempted/failed operation counts out.
type run struct {
	ctx      context.Context
	seed     int64
	seconds  float64 // how long the host phases measure, in total
	tiny     bool    // smoke-test sizes (go test)
	traceOut string  // Chrome trace path for the traced run, "" for none
	k        *kernel
	out      io.Writer

	attempted int
	failed    int
	failures  []string
	metrics   map[string]float64
	notes     map[string]string
}

func newRun(ctx context.Context, seed int64, seconds float64, out io.Writer) *run {
	return &run{ctx: ctx, seed: seed, seconds: seconds, out: out,
		metrics: map[string]float64{}, notes: map[string]string{}}
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

func (r *run) note(name, s string) { r.notes[name] = s }

// op counts one attempted operation (a dump job, a restore job, a
// client session) and reports whether it succeeded.
func (r *run) op(what string, err error) bool {
	r.attempted++
	if err != nil {
		r.fail(fmt.Sprintf("%s: %v", what, err))
		return false
	}
	return true
}

func (r *run) fail(msg string) {
	r.failed++
	if len(r.failures) < 16 {
		r.failures = append(r.failures, msg)
	}
}

// verify counts one verification comparison. A mismatch is a failed
// operation, not an error: the run goes on and exits non-zero.
func (r *run) verify(what string, check func() ([]string, error)) error {
	r.attempted++
	diffs, err := check()
	if err != nil {
		r.fail(fmt.Sprintf("%s: verifying: %v", what, err))
		return err
	}
	if len(diffs) > 0 {
		r.fail(fmt.Sprintf("%s: %d mismatches, first: %s", what, len(diffs), diffs[0]))
	}
	return nil
}

// phaseBudget is the timed work each of the two host phases gets.
func (r *run) phaseBudget() time.Duration {
	return time.Duration(r.seconds / 2 * float64(time.Second))
}

// setHostMetrics turns the two host phases into the allocation
// metrics. The phases' speeds are printed beside them for the reader
// and gated nowhere: on a shared machine they measure the neighbours
// (README, "Host-pass protocol"); the traced run reports them as
// process.*. rps is nil for a workload with no restore.
func (r *run) setHostMetrics(dps, rps *phaseStats) {
	r.set("dump_allocs_per_mib", dps.allocsPerMiB())
	r.note("dump_allocs_per_mib", dps.speed())
	// The mean of the phases' own ratios, not a ratio of sums: how many
	// passes each phase fits in its budget depends on the machine, and
	// must not weight a count.
	perByte := []float64{dps.allocBytesPerByte()}
	if rps != nil {
		r.set("restore_allocs_per_mib", rps.allocsPerMiB())
		r.note("restore_allocs_per_mib", rps.speed())
		perByte = append(perByte, rps.allocBytesPerByte())
	}
	r.set("alloc_bytes_per_user_byte", mean(perByte))
}

// placeholder fills a cell the workload has no meaning for. The
// driver's contract wants every metric from every workload; 1 is
// non-zero, cannot regress, and the table marks it.
func (r *run) placeholder(names ...string) {
	for _, n := range names {
		r.set(n, 1)
		r.note(n, "n/a on this workload: constant placeholder")
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the table and then the driver's JSON line. It returns
// the process exit code.
func (r *run) report(workload string, defs []metricDef) int {
	fmt.Fprintf(r.out, "workload %s  seed %d  seconds %g\n", workload, r.seed, r.seconds)
	out := map[string]metricValue{}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			r.fail("metric not produced: " + d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
		line := fmt.Sprintf("  %-42s %16.6f %-8s", d.Name, v, d.Unit)
		if n := r.notes[d.Name]; n != "" {
			line += "  (" + n + ")"
		}
		fmt.Fprintln(r.out, line)
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(r.out, "  %-42s %16.6f %-8s  (%d failed of %d operations)\n", "failed_share", share, "ratio", r.failed, r.attempted)
	for _, f := range r.failures {
		fmt.Fprintln(r.out, "  FAILED:", f)
	}
	if r.attempted == 0 {
		r.attempted = 1
		r.failed = 1
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	fmt.Fprintln(r.out, string(line))
	if r.failed > 0 {
		return 1
	}
	return 0
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: "+workloadNames())
		seed     = flag.Int64("seed", 1999, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", runSeconds, "how long the host phases measure")
		trace    = flag.Int("trace", 0, "1: the traced run that yields the per-layer metrics")
		traceOut = flag.String("trace-out", "", "with -trace 1: write the Chrome trace here")
		repeat   = flag.Int("repeat", 0, "launch the whole set this many times and print the spread of every metric")
		seedStep = flag.Int64("seed-step", 1, "with -repeat: launch i uses seed + i*step (0: one seed, the launch-to-launch spread)")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as this package defines it and exit")
	)
	flag.Parse()
	if *manifest {
		printManifest(os.Stdout)
		return
	}
	if *repeat > 0 {
		os.Exit(repeatMode(*repeat, *name, *seed, *seedStep, *seconds, *trace))
	}
	wd := findWorkload(*name)
	if wd == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	r := newRun(context.Background(), *seed, *seconds, os.Stdout)
	r.traceOut = *traceOut
	r.k = newKernel()
	defs := endToEnd
	var err error
	if *trace == 1 {
		defs = perLayer()
		err = wd.wl.layers(r)
	} else {
		err = wd.wl.endToEnd(r)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if r.failed == 0 {
			r.fail(err.Error())
		}
	}
	os.Exit(r.report(*name, defs))
}

// runSeconds is BENCHMARK.json's run_seconds: what the driver passes
// as --seconds.
const runSeconds = 6

// printManifest writes BENCHMARK.json from the definitions in spec.go,
// so the file and the program cannot drift apart (a test compares them).
func printManifest(w io.Writer) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var wls []wl
	for _, d := range workloads {
		wls = append(wls, wl{d.Name, d.Why})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	_ = enc.Encode(map[string]any{
		"command":     []string{"bash", "benchmark/run.sh"},
		"paths":       []string{"benchmark"},
		"run_seconds": runSeconds,
		"workloads":   wls,
		"end_to_end":  endToEnd,
		"per_layer":   perLayer(),
	})
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}
