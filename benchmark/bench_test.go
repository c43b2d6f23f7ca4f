package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
)

// tinyRun is a run at smoke-test sizes: a few MiB per volume, a dozen
// clients, host phases of a few tens of milliseconds.
func tinyRun(t *testing.T, seed int64) *run {
	t.Helper()
	r := newRun(context.Background(), seed, 0.05, io.Discard)
	r.tiny = true
	return r
}

func TestMain(m *testing.M) {
	minReps, setupSamples = 2, 2 // the smoke tests assert no host time
	os.Exit(m.Run())
}

var testKernel *kernel

func sharedKernel() *kernel {
	if testKernel == nil {
		testKernel = newKernel()
	}
	return testKernel
}

// TestSmokeEndToEnd runs the gated protocol of all four workloads at
// tiny size: every metric is produced, none is zero, nothing fails.
// Host times are not asserted.
func TestSmokeEndToEnd(t *testing.T) {
	for _, wd := range workloads {
		t.Run(wd.Name, func(t *testing.T) {
			r := tinyRun(t, 7)
			r.k = sharedKernel()
			if err := wd.wl.endToEnd(r); err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", r.failed, r.attempted, r.failures)
			}
			for _, d := range endToEnd {
				if v, ok := r.metrics[d.Name]; !ok || v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v (present %v)", d.Name, v, ok)
				}
			}
			if code := r.report(wd.Name, endToEnd); code != 0 {
				t.Errorf("exit code %d", code)
			}
		})
	}
}

// TestSmokeLayers runs the traced protocol of all four workloads at
// tiny size and checks every per-layer series is emitted.
func TestSmokeLayers(t *testing.T) {
	for _, wd := range workloads {
		t.Run(wd.Name, func(t *testing.T) {
			r := tinyRun(t, 7)
			r.k = sharedKernel()
			if err := wd.wl.layers(r); err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 {
				t.Fatalf("%d operations failed: %v", r.failed, r.failures)
			}
			for _, d := range perLayer() {
				if v, ok := r.metrics[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v (present %v)", d.Name, v, ok)
				}
			}
		})
	}
}

// virtualSeries are the series that come off the virtual clock or a
// deterministic count: everything but the host-time and process ones.
func virtualSeries(m map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range m {
		if strings.Contains(k, "host_") || strings.HasPrefix(k, "process.") || strings.HasPrefix(k, "obs.") ||
			strings.Contains(k, "allocs_per") || strings.Contains(k, "alloc_bytes") || k == "setup_s" {
			continue
		}
		out[k] = v
	}
	return out
}

// TestVirtualDeterminism: two in-process runs of one seed give
// bit-identical virtual metrics and virtual counters, which is what
// licenses comparing them exactly. Another seed gives the same ones
// again wherever the seed sets only contents; on dedup-week, where
// content-defined chunking reads the contents, it moves them.
func TestVirtualDeterminism(t *testing.T) {
	virtual := func(wd workloadDef, seed int64) map[string]float64 {
		r := tinyRun(t, seed)
		l := newLayerSet(r)
		var err error
		switch w := wd.wl.(type) {
		case *volumeWL:
			var rg *rig
			if rg, err = buildRig(r.ctx, w.rigConfig(r, true, w.width())); err == nil {
				err = w.virtualMetrics(r, rg)
			}
			if err == nil {
				_, err = w.virtualTraced(r, l, w.width(), true)
			}
		case *fleetWL:
			f := buildFleet(seed, true)
			if err = w.virtualMetrics(r, f); err == nil {
				err = w.virtualLayers(r, l, f)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		return virtualSeries(r.metrics)
	}
	for _, wd := range workloads {
		t.Run(wd.Name, func(t *testing.T) {
			a, b, other := virtual(wd, 11), virtual(wd, 11), virtual(wd, 12)
			moved := 0
			for k, v := range a {
				if b[k] != v {
					t.Errorf("%s: %v then %v on the same seed", k, v, b[k])
				}
				if other[k] != v {
					moved++
					if wd.Name != "dedup-week" {
						t.Errorf("%s: %v on seed 11, %v on seed 12", k, v, other[k])
					}
				}
			}
			if wd.Name == "dedup-week" && moved == 0 {
				t.Error("another seed's contents chunked identically")
			}
		})
	}
}

// TestSeedSetsContents: the seed changes what is dumped and pushed,
// and nothing about its size.
func TestSeedSetsContents(t *testing.T) {
	r1, r2 := tinyRun(t, 11), tinyRun(t, 12)
	w := &volumeWL{kind: kindLogical}
	a, err := buildRig(r1.ctx, w.rigConfig(r1, false, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildRig(r2.ctx, w.rigConfig(r2, false, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(workload.DiffDigests(a.want, b.want)) == 0 {
		t.Error("two seeds built the same tree contents")
	}
	if a.lastUserBytes() != b.lastUserBytes() {
		t.Errorf("two seeds built volumes of %d and %d bytes", a.lastUserBytes(), b.lastUserBytes())
	}
	fa, fb := buildFleet(11, true), buildFleet(12, true)
	if fa.clients[0].crc == fb.clients[0].crc || fa.bytes != fb.bytes {
		t.Error("two seeds built the same fleet contents, or fleets of different sizes")
	}
}

// TestPhysicalBypassesNVRAM: the physical path must not touch NVRAM;
// the logical restore must.
func TestPhysicalBypassesNVRAM(t *testing.T) {
	appends := func(kind volKind) (dump, restore float64) {
		r := tinyRun(t, 3)
		w := &volumeWL{kind: kind}
		if _, err := w.virtualTraced(r, newLayerSet(r), w.width(), true); err != nil {
			t.Fatal(err)
		}
		return r.metrics["nvram.appends.dump"], r.metrics["nvram.appends.restore"]
	}
	if d, rs := appends(kindPhysical); d != 0 || rs != 0 {
		t.Errorf("physical-4d: nvram.appends dump %v restore %v, want 0", d, rs)
	}
	if _, rs := appends(kindLogical); rs == 0 {
		t.Error("logical-4d: nvram.appends.restore is 0; the counter is not wired")
	}
}

// TestSelfTimesSumToSpan: on the single-stream host pass calls are
// synchronous, so the layers' self times must add up to the enclosing
// phase span.
func TestSelfTimesSumToSpan(t *testing.T) {
	for _, kind := range []volKind{kindLogical, kindDedup} {
		r := tinyRun(t, 5)
		w := &volumeWL{kind: kind}
		tr := newTracer(true)
		cfg := w.rigConfig(r, false, 1)
		rg, err := buildRig(r.ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, end := tr.phase(r.ctx, "bench.dump")
		_, err = w.dump(c, rg, 0, passOpts{iv: &meter{}, tr: tr})
		end()
		if err != nil {
			t.Fatal(err)
		}
		spans := tr.snapshot()
		root := spans[0].end - spans[0].start
		lt := tr.selfTimes(0)
		var sum int64
		for _, d := range lt.self {
			sum += d.Nanoseconds()
		}
		if diff := math.Abs(float64(sum)-float64(root)) / float64(root); diff > 0.02 {
			t.Errorf("kind %d: self times sum to %d ns, phase span is %d ns (%.1f%% apart)", kind, sum, root, 100*diff)
		}
		for _, layer := range []string{"bench", "logical"} {
			if lt.self[layer] <= 0 {
				t.Errorf("kind %d: no self time for layer %q", kind, layer)
			}
		}
	}
}

// TestCorruptStreamFails: a stream damaged on the media must make the
// run count a failed operation and exit non-zero, for every workload.
func TestCorruptStreamFails(t *testing.T) {
	for _, kind := range []volKind{kindLogical, kindPhysical, kindDedup} {
		r := tinyRun(t, 9)
		w := &volumeWL{kind: kind}
		rg, err := buildRig(r.ctx, w.rigConfig(r, false, w.width()))
		if err != nil {
			t.Fatal(err)
		}
		s, err := w.dump(r.ctx, rg, w.width(), passOpts{iv: &meter{}})
		if err != nil {
			t.Fatal(err)
		}
		cart := rg.tapes[0].Loaded()
		if !cart.CorruptRecord(cart.Records() / 2) {
			t.Fatal("no record to corrupt")
		}
		if r.op("restore", w.restore(r.ctx, rg, s, passOpts{iv: &meter{}})) {
			if err := r.verify("restore", func() ([]string, error) { return w.verify(r.ctx, rg, s, true) }); err != nil {
				t.Logf("kind %d: verify: %v", kind, err)
			}
		}
		if r.failed == 0 {
			t.Errorf("kind %d: a corrupted stream restored with no failure counted", kind)
		}
		if code := r.report("corrupt", nil); code == 0 {
			t.Errorf("kind %d: exit code 0 after a failed operation", kind)
		}
	}

	r := tinyRun(t, 9)
	f := buildFleet(9, true)
	f.clients[3].records[1][17] ^= 0xff // after the expected CRC was taken
	if _, err := (&fleetWL{}).virtualPass(r, f); err != nil {
		t.Fatal(err)
	}
	if r.failed != 1 {
		t.Errorf("fleet-push: %d failures counted for one corrupted client stream, want 1", r.failed)
	}
}

// TestChromeTraceNests: the exported trace holds the benchmark's spans
// and the repo's own, on one clock, the repo's logical.dump inside the
// benchmark's dump job and a benchmark seam span inside logical.dump.
func TestChromeTraceNests(t *testing.T) {
	r := tinyRun(t, 5)
	r.traceOut = filepath.Join(t.TempDir(), "trace.json")
	w := &volumeWL{kind: kindLogical}
	if err := w.hostTraced(r, newLayerSet(r)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(r.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatal(err)
	}
	inside := func(in, out chromeEvent) bool {
		return in.Ts >= out.Ts && in.Ts+in.Dur <= out.Ts+out.Dur
	}
	var job, repo, seam *chromeEvent
	for i := range trace.TraceEvents {
		if e := &trace.TraceEvents[i]; e.Name == "dump job" {
			job = e
			break
		}
	}
	for i := range trace.TraceEvents {
		if e := &trace.TraceEvents[i]; job != nil && e.Name == "logical.dump" && inside(*e, *job) {
			repo = e
			break
		}
	}
	if job == nil || repo == nil {
		t.Fatalf("dump job span %v, logical.dump inside it %v", job != nil, repo != nil)
	}
	for i := range trace.TraceEvents {
		e := &trace.TraceEvents[i]
		if e.Name == "WriteRecord" && inside(*e, *repo) {
			seam = e
			break
		}
	}
	if seam == nil {
		t.Error("no benchmark WriteRecord span inside the repo's logical.dump span")
	}
}

// TestBenchmarkJSON: BENCHMARK.json at the repo root lists exactly the
// workloads and metrics this package emits, with the same units,
// directions and bounds, and stays inside the driver's limits.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d exist", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the package %q", i, spec.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d listed, %d emitted", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the package %+v", kind, i, got[i], want[i])
			}
			if len(want[i].Name) > 64 || len(want[i].Unit) > 16 {
				t.Errorf("%s: name or unit too long", want[i].Name)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer())
	if len(spec.PerLayer) > 128 || len(spec.EndToEnd) > 16 {
		t.Error("too many metrics")
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(raw) > 64<<10 {
		t.Error("run_seconds or file size out of range")
	}
}
