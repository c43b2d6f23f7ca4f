// Package obs is the observability layer: a metrics registry and a
// span tracer threaded through the stack via context. Both are
// virtual-clock aware — on a simulated run, spans are stamped in
// sim.Time and utilization gauges read the stations' accumulated busy
// time — and both degrade to no-ops when absent from the context, so
// the hot paths pay one nil check when nobody is watching.
//
// The registry favors pull-style collection: subsystems register
// closures over the counters they already keep (RegisterFunc), so
// instrumentation adds no work to the data path. Push-style Counter
// and Gauge handles exist for code that has no counter of its own.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is one metric series' label set. Copied on registration.
type Labels map[string]string

// Kind classifies a metric for the Prometheus exporter.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
)

func (k Kind) String() string {
	switch k {
	case KindGauge:
		return "gauge"
	default:
		return "counter"
	}
}

// Counter is a push-style monotonic counter. A nil Counter (from a
// nil Registry) is a no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a push-style instantaneous value. A nil Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the stored value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// series is one labeled instance of a metric.
type series struct {
	labels Labels
	key    string // canonical sorted label rendering

	counter *Counter
	gauge   *Gauge
	fn      func() float64 // pull collector; wins over the push forms
}

func (s *series) value() float64 {
	switch {
	case s.fn != nil:
		return s.fn()
	case s.counter != nil:
		return float64(s.counter.Value())
	case s.gauge != nil:
		return s.gauge.Value()
	}
	return 0
}

// family is every series sharing one metric name.
type family struct {
	name   string
	kind   Kind
	series map[string]*series
	order  []string // registration order of series keys
}

// Registry holds metric families. The zero value is not usable; use
// NewRegistry. All methods are nil-safe: a nil *Registry hands back
// nil metric handles whose operations are no-ops, so callers can
// thread an optional registry without checking.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // registration order of family names
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey renders labels canonically (sorted by key).
func labelKey(l Labels) string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	return b.String()
}

// getSeries finds or creates the (name, labels) series.
func (r *Registry) getSeries(name string, kind Kind, l Labels) *series {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	key := labelKey(l)
	s, ok := f.series[key]
	if !ok {
		cp := make(Labels, len(l))
		for k, v := range l {
			cp[k] = v
		}
		s = &series{labels: cp, key: key}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter returns the push counter for (name, labels), creating it on
// first use. Nil receiver returns a nil (no-op) Counter.
func (r *Registry) Counter(name string, l Labels) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.getSeries(name, KindCounter, l)
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge returns the push gauge for (name, labels).
func (r *Registry) Gauge(name string, l Labels) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.getSeries(name, KindGauge, l)
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// RegisterFunc installs a pull collector for (name, labels): fn is
// called at snapshot/export time. Re-registering the same series
// replaces the collector, so rebuilding a subsystem is idempotent.
func (r *Registry) RegisterFunc(name string, kind Kind, l Labels, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.getSeries(name, kind, l)
	s.fn = fn
}

// Point is one series' value in a snapshot.
type Point struct {
	Name   string
	Kind   Kind
	Labels Labels
	Value  float64
}

// Snapshot evaluates every series (running pull collectors) and
// returns them in registration order. Nil receiver returns nil.
func (r *Registry) Snapshot() []Point {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Point
	for _, name := range r.order {
		f := r.families[name]
		for _, key := range f.order {
			s := f.series[key]
			out = append(out, Point{Name: name, Kind: f.kind, Labels: s.labels, Value: s.value()})
		}
	}
	return out
}

// Sum evaluates and sums every series of the named family — the
// cross-label aggregate ("all disks", "all drives"). 0 when absent.
func (r *Registry) Sum(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		return 0
	}
	var total float64
	for _, key := range f.order {
		total += f.series[key].value()
	}
	return total
}

// Value evaluates one series. The second return reports existence.
func (r *Registry) Value(name string, l Labels) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		return 0, false
	}
	s, ok := f.series[labelKey(l)]
	if !ok {
		return 0, false
	}
	return s.value(), true
}

// Has reports whether the named metric family exists.
func (r *Registry) Has(name string) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.families[name]
	return ok
}

// promLabels renders a label set in Prometheus exposition syntax.
func promLabels(l Labels) string {
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%q", k, l[k]))
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus writes the registry in Prometheus text exposition
// format: a # TYPE header followed by one line per series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		f := r.families[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, f.kind); err != nil {
			return err
		}
		for _, key := range f.order {
			s := f.series[key]
			if _, err := fmt.Fprintf(w, "%s%s %s\n", name, promLabels(s.labels), formatFloat(s.value())); err != nil {
				return err
			}
		}
	}
	return nil
}
