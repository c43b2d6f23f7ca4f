package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/logical"
	"repro/internal/obs"
)

// span is one call into a layer as the benchmark saw it from outside.
type span struct {
	name   string
	layer  string
	start  time.Duration // since the tracer's epoch, wall clock
	end    time.Duration
	parent int // index into tracer.spans, -1 for a root
	job    int
}

// Span depths. A span's parent is the innermost open span of lower
// depth; wrappers of one depth never nest inside each other, so a
// fixed depth per wrapper kind gives correct parents without a
// per-goroutine stack (physical dump's reader and writer stages are
// separate goroutines).
const (
	depthPhase  = iota // bench.dump / bench.restore
	depthEngine        // one dump or restore job
	depthSeam          // device, sink and source wrappers
	depthInner         // chunk media and index, under a chunk sink or source
	depthStore         // catalog.Store, under the index or the engine
	numDepths
)

// Spans live in fixed-size chunks handed out by an atomic counter, so
// recording one takes no lock: the client and server goroutines of a
// traced fleet pass record several spans per frame each, and a shared
// mutex there cost more than the frames did.
const (
	chunkBits = 14
	maxChunks = 512 // 8M spans
)

type spanChunk [1 << chunkBits]span

// tracer is the benchmark's own span recorder for the traced host
// pass. A nil *tracer is "tracing off": every hook returns its
// argument unchanged, so the end-to-end run executes no wrapper code.
type tracer struct {
	// timing is whether calls are recorded as spans. Off, the wrappers
	// only count — which is how the traced virtual pass uses them, and
	// how the untraced half of the overhead comparison runs on the same
	// wrapped rig.
	timing atomic.Bool

	epoch  time.Time
	next   atomic.Int64
	chunks [maxChunks]atomic.Pointer[spanChunk]
	open   [numDepths]atomic.Int64 // innermost open span per depth, -1 for none
	job    atomic.Int64

	// obsTr is the repo's own tracer, carried in ctx through the
	// engines; its spans are merged into the exported Chrome trace.
	obsTr *obs.Tracer

	mu   sync.Mutex
	taps map[string]*tapCounts // what the wrappers counted, by name
}

func newTracer(timing bool) *tracer {
	t := &tracer{epoch: time.Now(), obsTr: obs.NewTracer(), taps: map[string]*tapCounts{}}
	t.timing.Store(timing)
	for i := range t.open {
		t.open[i].Store(-1)
	}
	return t
}

// at returns span id's slot, allocating its chunk on first use.
func (t *tracer) at(id int) *span {
	c := &t.chunks[id>>chunkBits]
	chunk := c.Load()
	if chunk == nil {
		c.CompareAndSwap(nil, new(spanChunk))
		chunk = c.Load()
	}
	return &chunk[id&(1<<chunkBits-1)]
}

// begin opens a span at depth d and returns its id, or -1 when spans
// are not being recorded.
func (t *tracer) begin(d int, layer, name string) int {
	if !t.timing.Load() {
		return -1
	}
	id := int(t.next.Add(1) - 1)
	parent := int64(-1)
	for p := d - 1; p >= 0 && parent < 0; p-- {
		parent = t.open[p].Load()
	}
	*t.at(id) = span{name: name, layer: layer, start: time.Since(t.epoch), end: -1, parent: int(parent), job: int(t.job.Load())}
	t.open[d].Store(int64(id))
	return id
}

func (t *tracer) finish(d, id int) {
	if id < 0 {
		return
	}
	t.at(id).end = time.Since(t.epoch)
	t.open[d].CompareAndSwap(int64(id), -1)
}

// snapshot copies every recorded span. Call it only once the
// goroutines that recorded them are done.
func (t *tracer) snapshot() []span {
	n := int(t.next.Load())
	spans := make([]span, n)
	for i := range spans {
		spans[i] = *t.at(i)
	}
	return spans
}

// phase opens a root span around one whole pass; ctx gains the repo's
// tracer so the engines' own spans land inside it.
func (t *tracer) phase(ctx context.Context, name string) (context.Context, func()) {
	if t == nil || !t.timing.Load() {
		return ctx, func() {}
	}
	t.job.Add(1)
	idx := t.begin(depthPhase, "bench", name)
	return obs.WithTracer(ctx, t.obsTr), func() { t.finish(depthPhase, idx) }
}

// span opens an engine-depth span: one dump or restore job.
func (t *tracer) span(layer, name string) func() {
	if t == nil {
		return func() {}
	}
	idx := t.begin(depthEngine, layer, name)
	return func() { t.finish(depthEngine, idx) }
}

// layerTimes is per-layer accounting over a set of spans.
type layerTimes struct {
	total map[string]time.Duration // sum of span durations
	self  map[string]time.Duration // minus the part children cover
	calls map[string]int
}

// selfTimes computes, for every span from index lo on, its duration
// minus the union of its children's intervals, and sums by layer.
func (t *tracer) selfTimes(lo int) layerTimes {
	spans := t.snapshot()
	children := make(map[int][]int)
	for i := lo; i < len(spans); i++ {
		if p := spans[i].parent; p >= lo {
			children[p] = append(children[p], i)
		}
	}
	lt := layerTimes{total: map[string]time.Duration{}, self: map[string]time.Duration{}, calls: map[string]int{}}
	for i := lo; i < len(spans); i++ {
		s := spans[i]
		dur := s.end - s.start
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		var covered, reach time.Duration
		reach = s.start
		for _, k := range kids {
			ks, ke := spans[k].start, spans[k].end
			if ke > s.end {
				ke = s.end
			}
			if ks < reach {
				ks = reach
			}
			if ke > ks {
				covered += ke - ks
				reach = ke
			}
		}
		lt.total[s.layer] += dur
		lt.self[s.layer] += dur - covered
		lt.calls[s.layer]++
	}
	return lt
}

// mark returns the current span count, a lower bound for selfTimes.
func (t *tracer) mark() int { return int(t.next.Load()) }

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	return t.mark() + t.obsTr.SpanCount()
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome exports the benchmark's spans together with the repo's
// own (logical.*, physical.*, pipeline.* from internal/obs) as one
// Chrome trace_event file. Both clocks count from the same instant and
// both sets share pid 1 / tid 1, so in chrome://tracing or Perfetto
// the repo's spans sit inside the benchmark's phase and job spans and
// the benchmark's seam spans sit inside the repo's.
func (t *tracer) writeChrome(path string) error {
	var repo struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	var buf bytes.Buffer
	if err := t.obsTr.WriteChromeTrace(&buf); err != nil {
		return err
	}
	if err := json.Unmarshal(buf.Bytes(), &repo); err != nil {
		return err
	}
	events := repo.TraceEvents
	for i, s := range t.snapshot() {
		events = append(events, chromeEvent{
			Name: s.name, Cat: "bench." + s.layer, Ph: "X",
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			Pid: 1, Tid: 1,
			Args: map[string]any{"span": i, "parent": s.parent, "job": s.job},
		})
	}
	out, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// stageWindows collects the logical engine's stage boundaries on the
// rig's clock through the public StageRecorder hook. Every dump or
// restore call gets its own recorder; a stage's time is the length of
// the union of the intervals some call spent in it, so the parallel
// shard streams of a restore count once and the seven dumps of a week
// add up.
type stageWindows struct {
	r         *rig
	intervals map[string][][2]time.Duration
}

func newStageWindows(r *rig) *stageWindows {
	return &stageWindows{r: r, intervals: map[string][][2]time.Duration{}}
}

// recorder returns a fresh StageRecorder, or a nil interface when
// stage recording is off.
func (w *stageWindows) recorder() logical.StageRecorder {
	if w == nil {
		return nil
	}
	return &stageRec{w: w}
}

// seconds is the union length of the named stages' intervals.
func (w *stageWindows) seconds(names ...string) float64 {
	var all [][2]time.Duration
	for _, n := range names {
		all = append(all, w.intervals[n]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i][0] < all[j][0] })
	var total, reach time.Duration
	for _, iv := range all {
		lo, hi := iv[0], iv[1]
		if lo < reach {
			lo = reach
		}
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return total.Seconds()
}

type stageRec struct {
	w    *stageWindows
	name string
	t0   time.Duration
}

func (s *stageRec) Begin(name string) { s.name, s.t0 = name, s.w.r.now() }

func (s *stageRec) End() {
	s.w.intervals[s.name] = append(s.w.intervals[s.name], [2]time.Duration{s.t0, s.w.r.now()})
}
