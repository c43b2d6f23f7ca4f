package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/sim"
)

// Tracer collects spans. Timestamps come from the sim proc carried in
// the span's context when there is one — so a simulated dump renders
// on its virtual timeline — and otherwise from wall time relative to
// the tracer's creation.
//
// SlowThreshold, when set, turns on the slow-op log: every span whose
// duration (on whichever clock stamped it) meets the threshold is
// reported through SlowLog as it ends.
type Tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	events  []traceEvent
	threads map[string]int // proc name -> synthetic tid
	tidseq  int

	// SlowThreshold enables the slow-op log for spans at least this
	// long. SlowLog receives one line per slow span; nil discards.
	SlowThreshold time.Duration
	SlowLog       func(line string)
}

// traceEvent is one completed span, Chrome trace_event shaped.
type traceEvent struct {
	name  string
	tid   int
	start time.Duration // since epoch (virtual or wall)
	dur   time.Duration
	args  map[string]any
}

// NewTracer creates a tracer with a wall-clock epoch of now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), threads: map[string]int{}}
}

// now stamps the current time on the clock p lives on (virtual), or
// wall time since the epoch when p is nil.
func (t *Tracer) now(p *sim.Proc) time.Duration {
	if p != nil {
		return p.Now()
	}
	return time.Since(t.epoch)
}

// tidFor maps a proc to a stable synthetic thread id, so each sim
// process renders as its own track in the trace viewer.
func (t *Tracer) tidFor(p *sim.Proc) int {
	name := "main"
	if p != nil {
		name = p.Name()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tid, ok := t.threads[name]
	if !ok {
		t.tidseq++
		tid = t.tidseq
		t.threads[name] = tid
	}
	return tid
}

// Span is one timed operation. A nil Span (no tracer in the context)
// is a no-op, so instrumented code never branches on tracing.
type Span struct {
	tr    *Tracer
	name  string
	tid   int
	proc  *sim.Proc
	begin time.Duration

	mu    sync.Mutex
	attrs map[string]any
	ended bool
}

// SpanCount returns how many spans have completed.
func (t *Tracer) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

type tracerKey struct{}
type spanKey struct{}
type metricsKey struct{}

// WithTracer returns ctx carrying t.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom extracts the tracer from ctx, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// WithMetrics returns ctx carrying r.
func WithMetrics(ctx context.Context, r *Registry) context.Context {
	return context.WithValue(ctx, metricsKey{}, r)
}

// MetricsFrom extracts the registry from ctx, or nil — whose methods
// are no-ops, so callers use the result unconditionally.
func MetricsFrom(ctx context.Context) *Registry {
	r, _ := ctx.Value(metricsKey{}).(*Registry)
	return r
}

// Start opens a span named name. The begin timestamp is taken from
// the sim proc in ctx (virtual time) or wall time. The returned
// context carries the span, so child Starts nest under it in the
// rendered trace. With no tracer in ctx, both returns are usable:
// ctx unchanged and a nil (no-op) span.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	tr := TracerFrom(ctx)
	if tr == nil {
		return ctx, nil
	}
	p := sim.ProcFrom(ctx)
	s := &Span{tr: tr, name: name, proc: p, tid: tr.tidFor(p), begin: tr.now(p)}
	return context.WithValue(ctx, spanKey{}, s), s
}

// SetAttr records a key/value attribute shown in the trace viewer's
// args pane (bytes, blocks, retries, shard...). No-op on nil.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.attrs == nil {
		s.attrs = make(map[string]any)
	}
	s.attrs[key] = value
}

// End closes the span, records it, and fires the slow-op log when the
// duration meets the tracer's threshold. Idempotent; no-op on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()

	end := s.tr.now(s.proc)
	dur := end - s.begin
	if dur < 0 {
		dur = 0
	}
	s.tr.mu.Lock()
	s.tr.events = append(s.tr.events, traceEvent{
		name: s.name, tid: s.tid, start: s.begin, dur: dur, args: attrs,
	})
	slow := s.tr.SlowThreshold > 0 && dur >= s.tr.SlowThreshold
	logf := s.tr.SlowLog
	threshold := s.tr.SlowThreshold
	s.tr.mu.Unlock()
	if slow && logf != nil {
		logf(fmt.Sprintf("slow op: %s took %v (threshold %v)", s.name, dur, threshold))
	}
}

// chromeEvent is the trace_event JSON wire shape.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// Slug folds a human-readable stage name ("Reading directories") into
// a span-name component ("reading_directories").
func Slug(name string) string {
	b := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'A' && c <= 'Z':
			b = append(b, c+'a'-'A')
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			b = append(b, c)
		default:
			if len(b) > 0 && b[len(b)-1] != '_' {
				b = append(b, '_')
			}
		}
	}
	for len(b) > 0 && b[len(b)-1] == '_' {
		b = b[:len(b)-1]
	}
	return string(b)
}

// category is the span-name prefix up to the first dot, used as the
// Chrome trace category ("logical", "physical", "ndmp", ...).
func category(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// WriteChromeTrace exports every completed span as Chrome trace_event
// JSON ("X" complete events plus thread-name metadata), loadable in
// chrome://tracing and Perfetto. Timestamps are microseconds on the
// clock that stamped the span (virtual for simulated runs).
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	events := append([]traceEvent(nil), t.events...)
	threads := make(map[string]int, len(t.threads))
	for name, tid := range t.threads {
		threads[name] = tid
	}
	t.mu.Unlock()

	var out chromeTrace
	names := make([]string, 0, len(threads))
	for name := range threads {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return threads[names[i]] < threads[names[j]] })
	for _, name := range names {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: threads[name],
			Args: map[string]any{"name": name},
		})
	}
	for _, e := range events {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: e.name, Cat: category(e.name), Ph: "X",
			Ts:  float64(e.start) / float64(time.Microsecond),
			Dur: float64(e.dur) / float64(time.Microsecond),
			Pid: 1, Tid: e.tid, Args: e.args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}
