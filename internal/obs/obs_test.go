package obs

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	r.Counter("x_total", nil).Add(5)
	r.Gauge("g", nil).Set(1)
	r.RegisterFunc("f", KindCounter, nil, func() float64 { return 1 })
	if got := r.Sum("x_total"); got != 0 {
		t.Fatalf("nil registry Sum = %v", got)
	}
	if pts := r.Snapshot(); pts != nil {
		t.Fatalf("nil registry Snapshot = %v", pts)
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}
}

func TestCounterGaugeAndSum(t *testing.T) {
	r := NewRegistry()
	r.Counter("reads_total", Labels{"disk": "d0"}).Add(3)
	r.Counter("reads_total", Labels{"disk": "d1"}).Add(4)
	r.Gauge("busy_seconds", Labels{"disk": "d0"}).Set(1.5)
	if got := r.Sum("reads_total"); got != 7 {
		t.Fatalf("Sum(reads_total) = %v, want 7", got)
	}
	v, ok := r.Value("reads_total", Labels{"disk": "d1"})
	if !ok || v != 4 {
		t.Fatalf("Value(d1) = %v, %v", v, ok)
	}
	if _, ok := r.Value("reads_total", Labels{"disk": "d9"}); ok {
		t.Fatal("Value of absent series reported ok")
	}
	// Same (name, labels) returns the same counter.
	r.Counter("reads_total", Labels{"disk": "d0"}).Inc()
	if v, _ := r.Value("reads_total", Labels{"disk": "d0"}); v != 4 {
		t.Fatalf("shared counter = %v, want 4", v)
	}
}

func TestRegisterFuncPullAndReplace(t *testing.T) {
	r := NewRegistry()
	n := int64(10)
	r.RegisterFunc("pull_total", KindCounter, Labels{"v": "a"}, func() float64 { return float64(n) })
	if got := r.Sum("pull_total"); got != 10 {
		t.Fatalf("pull = %v", got)
	}
	n = 25
	if got := r.Sum("pull_total"); got != 25 {
		t.Fatalf("pull after mutation = %v", got)
	}
	// Re-registration replaces the collector (idempotent rebuilds).
	r.RegisterFunc("pull_total", KindCounter, Labels{"v": "a"}, func() float64 { return 99 })
	if got := r.Sum("pull_total"); got != 99 {
		t.Fatalf("pull after re-register = %v", got)
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops_total", Labels{"kind": "read", "disk": "d0"}).Add(2)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE ops_total counter",
		`ops_total{disk="d0",kind="read"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestNilSpanAndTracerFromEmptyContext(t *testing.T) {
	ctx := context.Background()
	if tr := TracerFrom(ctx); tr != nil {
		t.Fatal("tracer from empty ctx")
	}
	ctx2, span := Start(ctx, "noop")
	if span != nil {
		t.Fatal("span without tracer")
	}
	if ctx2 != ctx {
		t.Fatal("ctx changed without tracer")
	}
	span.SetAttr("k", 1) // must not panic
	span.End()
	if r := MetricsFrom(ctx); r != nil {
		t.Fatal("registry from empty ctx")
	}
}

func TestSpanVirtualTimeStamps(t *testing.T) {
	env := sim.NewEnv()
	tr := NewTracer()
	env.Spawn("worker", func(p *sim.Proc) {
		ctx := WithTracer(sim.WithProc(context.Background(), p), tr)
		p.Sleep(10 * time.Millisecond)
		ctx, outer := Start(ctx, "outer.op")
		p.Sleep(40 * time.Millisecond)
		_, inner := Start(ctx, "outer.child")
		inner.SetAttr("bytes", 128)
		p.Sleep(5 * time.Millisecond)
		inner.End()
		outer.End()
	})
	env.Run()
	if tr.SpanCount() != 2 {
		t.Fatalf("spans = %d, want 2", tr.SpanCount())
	}
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &parsed); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	byName := map[string]int{}
	for i, e := range parsed.TraceEvents {
		byName[e.Name] = i
	}
	child := parsed.TraceEvents[byName["outer.child"]]
	outer := parsed.TraceEvents[byName["outer.op"]]
	// Virtual stamps in microseconds: outer begins at 10ms, runs 45ms;
	// child begins at 50ms, runs 5ms — nested inside the parent.
	if outer.Ts != 10_000 || outer.Dur != 45_000 {
		t.Fatalf("outer ts/dur = %v/%v, want 10000/45000", outer.Ts, outer.Dur)
	}
	if child.Ts != 50_000 || child.Dur != 5_000 {
		t.Fatalf("child ts/dur = %v/%v, want 50000/5000", child.Ts, child.Dur)
	}
	if child.Ts < outer.Ts || child.Ts+child.Dur > outer.Ts+outer.Dur {
		t.Fatal("child span not nested within parent")
	}
	if child.Args["bytes"] != float64(128) {
		t.Fatalf("child args = %v", child.Args)
	}
	if _, ok := byName["thread_name"]; !ok {
		t.Fatal("no thread_name metadata event")
	}
}

func TestSpanWallClockFallback(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	_, span := Start(ctx, "wall.op")
	span.End()
	if tr.SpanCount() != 1 {
		t.Fatalf("spans = %d", tr.SpanCount())
	}
}

func TestSlowOpLog(t *testing.T) {
	env := sim.NewEnv()
	tr := NewTracer()
	tr.SlowThreshold = 100 * time.Millisecond
	var lines []string
	tr.SlowLog = func(line string) { lines = append(lines, line) }
	env.Spawn("slowpoke", func(p *sim.Proc) {
		ctx := WithTracer(sim.WithProc(context.Background(), p), tr)
		_, fast := Start(ctx, "op.fast")
		p.Sleep(time.Millisecond)
		fast.End()
		_, slow := Start(ctx, "op.slow")
		p.Sleep(time.Second)
		slow.End()
	})
	env.Run()
	if len(lines) != 1 || !strings.Contains(lines[0], "op.slow") {
		t.Fatalf("slow log = %v, want one op.slow line", lines)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	_, span := Start(ctx, "once")
	span.End()
	span.End()
	if tr.SpanCount() != 1 {
		t.Fatalf("double End recorded %d spans", tr.SpanCount())
	}
}
