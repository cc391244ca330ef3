package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value metric dimension. Label order is preserved
// exactly as given at registration, so rendered series match historical
// spellings like {endpoint="schedule",outcome="ok"} byte for byte.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metric kinds, for the # TYPE line.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// Counter is a monotonically increasing value. All methods are safe for
// concurrent use and allocation-free.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d (d must be non-negative).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max tracks the maximum observed value (starting at zero). It renders
// as a gauge.
type Max struct{ v atomic.Int64 }

// Observe records v, keeping the running maximum.
func (m *Max) Observe(v int64) {
	for {
		old := m.v.Load()
		if v <= old || m.v.CompareAndSwap(old, v) {
			return
		}
	}
}

// Value returns the maximum observed so far.
func (m *Max) Value() int64 { return m.v.Load() }

// Emit is the callback a Dynamic metric uses to produce series at render
// time.
type Emit func(v int64, labels ...Label)

// series is one registered time series within a family.
type series struct {
	labels []Label
	// exactly one of these is set
	counter *Counter
	gauge   *Gauge
	max     *Max
	hist    *Histogram
	fn      func() int64
}

// family groups all series sharing one metric name.
type family struct {
	name    string
	help    string
	kind    string
	series  []*series
	dynamic func(Emit) // render-time expansion (exclusive with series)
}

// Registry holds metric families in registration order and renders them
// as one text exposition. Registration normally happens once at boot;
// it panics on an invalid or duplicate registration, which is a
// programming error the metrics-name lint test catches in CI.
type Registry struct {
	mu       sync.RWMutex
	families []*family
	byName   map[string]*family
	reserved map[string]string // derived names (histogram _bucket/_sum/_count) -> owner
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byName:   map[string]*family{},
		reserved: map[string]string{},
	}
}

// validName is the snake_case contract for metric and label names:
// lowercase letters, digits, and underscores, starting with a letter.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c == '_' && i > 0:
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

func (r *Registry) checkName(name string, labels []Label) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q (want snake_case: [a-z][a-z0-9_]*)", name))
	}
	if owner, clash := r.reserved[name]; clash {
		panic(fmt.Sprintf("obs: metric name %q collides with a series derived from histogram %q", name, owner))
	}
	for _, l := range labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %q", l.Key, name))
		}
	}
}

// familyFor finds or creates the family, enforcing one kind per name.
func (r *Registry) familyFor(name, help, kind string) *family {
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.families = append(r.families, f)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.kind, kind))
	}
	if f.dynamic != nil {
		panic(fmt.Sprintf("obs: metric %q is dynamic; cannot add static series", name))
	}
	if f.help == "" {
		f.help = help
	}
	return f
}

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Key + "\x00" + l.Value
	}
	sort.Strings(parts)
	return strings.Join(parts, "\x01")
}

func (f *family) addSeries(s *series) {
	key := labelKey(s.labels)
	for _, have := range f.series {
		if labelKey(have.labels) == key {
			panic(fmt.Sprintf("obs: duplicate series %s%s", f.name, formatLabels(s.labels)))
		}
	}
	f.series = append(f.series, s)
}

// Counter registers (or extends a family with) a counter series and
// returns its handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, labels)
	c := &Counter{}
	r.familyFor(name, help, kindCounter).addSeries(&series{labels: labels, counter: c})
	return c
}

// Gauge registers a settable gauge series and returns its handle.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, labels)
	g := &Gauge{}
	r.familyFor(name, help, kindGauge).addSeries(&series{labels: labels, gauge: g})
	return g
}

// GaugeFunc registers a gauge series whose value is read from fn at
// render time — the bridge for subsystems that already keep their own
// counters (cache stats, pool depth, uptime).
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, labels)
	r.familyFor(name, help, kindGauge).addSeries(&series{labels: labels, fn: fn})
}

// CounterFunc is GaugeFunc with counter typing, for monotonic values a
// subsystem already counts internally (cache hit totals, flight
// leaders).
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, labels)
	r.familyFor(name, help, kindCounter).addSeries(&series{labels: labels, fn: fn})
}

// Max registers a running-maximum series and returns its handle.
func (r *Registry) Max(name, help string, labels ...Label) *Max {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, labels)
	m := &Max{}
	r.familyFor(name, help, kindGauge).addSeries(&series{labels: labels, max: m})
	return m
}

// Dynamic registers a whole family expanded at render time: fn is
// called with an emit callback and produces zero or more series. It is
// the escape hatch for label sets that are not fixed at boot (per-target
// online filter versions); the name is still validated and reserved.
func (r *Registry) Dynamic(name, help string, fn func(Emit)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, nil)
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric name %q", name))
	}
	f := &family{name: name, help: help, kind: kindGauge, dynamic: fn}
	r.byName[name] = f
	r.families = append(r.families, f)
}

// Histogram registers a fixed-bucket histogram series and returns its
// handle. bounds are the inclusive bucket upper bounds in ascending
// order (an implicit +Inf bucket is always appended); nil selects
// defLatencyBuckets. The derived _bucket/_sum/_count names are reserved
// so a later plain registration cannot collide with them.
func (r *Registry) Histogram(name, help string, bounds []int64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, labels)
	if bounds == nil {
		bounds = defLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly ascending", name))
		}
	}
	h := newHistogram(bounds)
	f := r.familyFor(name, help, kindHistogram)
	f.addSeries(&series{labels: labels, hist: h})
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		derived := name + suffix
		if _, dup := r.byName[derived]; dup {
			panic(fmt.Sprintf("obs: histogram %q collides with existing metric %q", name, derived))
		}
		r.reserved[derived] = name
	}
	return h
}

// Names returns every registered family name in registration order —
// the compat tests' inventory.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.families))
	for i, f := range r.families {
		out[i] = f.name
	}
	return out
}

func formatLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Render writes the whole registry in Prometheus text exposition
// format, families in registration order.
func (r *Registry) Render(w io.Writer) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, f := range r.families {
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		if f.dynamic != nil {
			f.dynamic(func(v int64, labels ...Label) {
				fmt.Fprintf(w, "%s%s %d\n", f.name, formatLabels(labels), v)
			})
			continue
		}
		for _, s := range f.series {
			switch {
			case s.hist != nil:
				s.hist.render(w, f.name, s.labels)
			case s.counter != nil:
				fmt.Fprintf(w, "%s%s %d\n", f.name, formatLabels(s.labels), s.counter.Value())
			case s.gauge != nil:
				fmt.Fprintf(w, "%s%s %d\n", f.name, formatLabels(s.labels), s.gauge.Value())
			case s.max != nil:
				fmt.Fprintf(w, "%s%s %d\n", f.name, formatLabels(s.labels), s.max.Value())
			case s.fn != nil:
				fmt.Fprintf(w, "%s%s %d\n", f.name, formatLabels(s.labels), s.fn())
			}
		}
	}
}

// RenderString is Render into a string.
func (r *Registry) RenderString() string {
	var b strings.Builder
	r.Render(&b)
	return b.String()
}
