package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"cxlfork/internal/des"
)

// DefaultSeriesCap is the per-series ring capacity when the caller
// passes zero: 4096 samples at the default 100 ms tick is ~7 minutes
// of virtual time before the ring starts overwriting.
const DefaultSeriesCap = 4096

// Kind distinguishes monotone counters from point-in-time gauges. The
// exporters map it onto the Prometheus/OpenMetrics TYPE line.
type Kind uint8

const (
	KindGauge Kind = iota
	KindCounter
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	if k == KindCounter {
		return "counter"
	}
	return "gauge"
}

// Label is one dimension of a series identity (e.g. node="node1").
type Label struct {
	K, V string
}

// L is shorthand for constructing a Label.
func L(k, v string) Label { return Label{K: k, V: v} }

// labelString renders labels as Prometheus exposition text:
// {a="x",b="y"}, or "" when there are none. Labels are sorted at
// registration, so the rendering is deterministic.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.K, l.V)
	}
	b.WriteByte('}')
	return b.String()
}

// Probe reads one metric value at a sample instant. Probes must be
// pure observers: they may memoize work keyed on `now`, but must not
// mutate simulation state, or sampling would perturb the run it is
// watching.
type Probe func(now des.Time) float64

// Sample is one (virtual time, value) point in a series.
type Sample struct {
	T des.Time
	V float64
}

// Series is a fixed-capacity ring of samples for one metric. When the
// ring is full the oldest sample is overwritten and Dropped is
// incremented — sampling never reallocates and never blocks.
type Series struct {
	name    string
	labels  []Label
	lstr    string // labelString(labels), rendered once at registration
	key     string // name + lstr
	help    string
	kind    Kind
	probe   Probe
	buf     []Sample
	head    int // index of the oldest sample once the ring is full
	dropped int64
}

// Name returns the metric name (without labels).
func (s *Series) Name() string { return s.name }

// Labels returns the series labels, sorted by key.
func (s *Series) Labels() []Label { return s.labels }

// Help returns the one-line metric description.
func (s *Series) Help() string { return s.help }

// Kind returns whether the series is a gauge or a counter.
func (s *Series) Kind() Kind { return s.kind }

// Key returns the full series identity: name plus rendered labels.
func (s *Series) Key() string { return s.key }

// Dropped returns how many samples were overwritten because the ring
// was full.
func (s *Series) Dropped() int64 { return s.dropped }

// Len returns the number of retained samples.
func (s *Series) Len() int { return len(s.buf) }

func (s *Series) append(t des.Time, v float64) {
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, Sample{T: t, V: v})
		return
	}
	s.buf[s.head] = Sample{T: t, V: v}
	s.head = (s.head + 1) % len(s.buf)
	s.dropped++
}

// at returns the i-th retained sample in time order.
func (s *Series) at(i int) Sample {
	if len(s.buf) < cap(s.buf) {
		return s.buf[i]
	}
	return s.buf[(s.head+i)%len(s.buf)]
}

// Samples returns the retained samples oldest-first.
func (s *Series) Samples() []Sample {
	out := make([]Sample, len(s.buf))
	for i := range s.buf {
		out[i] = s.at(i)
	}
	return out
}

// Last returns the most recent sample, if any.
func (s *Series) Last() (Sample, bool) {
	if len(s.buf) == 0 {
		return Sample{}, false
	}
	return s.at(len(s.buf) - 1), true
}

// Window calls fn for every retained sample with from <= T <= to, in
// time order, without allocating.
func (s *Series) Window(from, to des.Time, fn func(Sample)) {
	for i := 0; i < len(s.buf); i++ {
		sm := s.at(i)
		if sm.T < from || sm.T > to {
			continue
		}
		fn(sm)
	}
}

// Registry holds every registered series and samples them on demand.
// A nil *Registry is the disabled state: every method is a safe no-op,
// so instrumented code needs no enabled-checks (the same contract as
// trace.Tracer).
type Registry struct {
	every      des.Time
	seriesCap  int
	series     []*Series // registration order — the sampling order
	sorted     []*Series // (name, labels) order; nil after a registration
	byKey      map[string]*Series
	ticks      int64
	sink       SinkFunc
	sinkPanics int64
}

// SinkFunc observes one completed sampling tick. The registry calls it
// synchronously at the end of Sample, on the goroutine driving the
// simulation, after every series has appended its point for `now` —
// so a sink reading Series.Last sees a consistent cross-series cut of
// the tick. Sinks are the streaming-export hook (DESIGN.md §15): the
// serving layer converts each tick into a live telemetry frame. A sink
// must not mutate the registry.
type SinkFunc func(now des.Time)

// SetSink installs fn as the registry's sampling sink (nil removes it).
// At most one sink is supported; the owner of the registry decides.
// Like every probe, the sink is observational: installing one changes
// no sampled value, so runs with and without a sink stay byte-identical
// — unless the sink itself stops the engine, which is exactly the
// cancellation path the serving layer uses. A sink that panics is
// absorbed and uninstalled (see Sample), so a broken exporter cannot
// corrupt the run it was watching.
func (r *Registry) SetSink(fn SinkFunc) {
	if r == nil {
		return
	}
	r.sink = fn
}

// New builds an enabled registry sampling nominally every `every`
// virtual-time units (the owner drives the actual tick) with the given
// per-series ring capacity (DefaultSeriesCap when <= 0).
func New(every des.Time, seriesCap int) *Registry {
	if seriesCap <= 0 {
		seriesCap = DefaultSeriesCap
	}
	return &Registry{every: every, seriesCap: seriesCap, byKey: map[string]*Series{}}
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// SampleEvery returns the nominal sampling period.
func (r *Registry) SampleEvery() des.Time {
	if r == nil {
		return 0
	}
	return r.every
}

func (r *Registry) register(name, help string, kind Kind, probe Probe, labels []Label) *Series {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].K < ls[j].K })
	lstr := labelString(ls)
	s := &Series{name: name, labels: ls, lstr: lstr, key: name + lstr, help: help, kind: kind,
		probe: probe, buf: make([]Sample, 0, r.seriesCap)}
	if _, dup := r.byKey[s.key]; dup {
		panic("telemetry: duplicate series " + s.key)
	}
	r.byKey[s.key] = s
	r.series = append(r.series, s)
	r.sorted = nil
	return s
}

// Gauge registers a point-in-time metric read by probe at every tick.
func (r *Registry) Gauge(name, help string, probe Probe, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, help, KindGauge, probe, labels)
}

// CounterFunc registers a monotone metric read by probe at every tick
// — for counters the instrumented layer already maintains.
func (r *Registry) CounterFunc(name, help string, probe Probe, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, help, KindCounter, probe, labels)
}

// Counter registers a push-style counter and returns its handle. A nil
// registry returns a nil handle whose Add/Inc are no-ops, so call
// sites stay unconditional.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.register(name, help, KindCounter, func(des.Time) float64 { return c.v }, labels)
	return c
}

// Sample evaluates every probe at virtual time now and appends one
// point per series, in registration order.
func (r *Registry) Sample(now des.Time) {
	if r == nil {
		return
	}
	r.ticks++
	for _, s := range r.series {
		s.append(now, s.probe(now))
	}
	if r.sink != nil {
		r.safeSink(now)
	}
}

// safeSink invokes the sink with panic isolation: every series has
// already appended its point for the tick, so a sink that panics (a
// broken exporter, a closed channel) loses only its own delivery — the
// sampled timeline, tick count, and run results are untouched. The
// panicking sink is uninstalled so one bad export cannot panic every
// subsequent tick; SinkPanics reports how many times that happened.
func (r *Registry) safeSink(now des.Time) {
	defer func() {
		if recover() != nil {
			r.sinkPanics++
			r.sink = nil
		}
	}()
	r.sink(now)
}

// SinkPanics returns how many sampling sinks were uninstalled after
// panicking mid-tick (0 in a healthy run).
func (r *Registry) SinkPanics() int64 {
	if r == nil {
		return 0
	}
	return r.sinkPanics
}

// Ticks returns how many sample ticks have run.
func (r *Registry) Ticks() int64 {
	if r == nil {
		return 0
	}
	return r.ticks
}

// Dropped returns the total ring-buffer overwrites across all series.
func (r *Registry) Dropped() int64 {
	if r == nil {
		return 0
	}
	var n int64
	for _, s := range r.series {
		n += s.dropped
	}
	return n
}

// Lookup returns the series with the given key (name plus rendered
// labels, e.g. `kernel_tasks{node="node0"}`), or nil.
func (r *Registry) Lookup(key string) *Series {
	if r == nil {
		return nil
	}
	return r.byKey[key]
}

// Series returns every series sorted by (name, labels) — the exporters'
// deterministic order. The order is computed once per registration,
// not per call; the returned slice is the caller's to modify.
func (r *Registry) Series() []*Series {
	if r == nil {
		return nil
	}
	if r.sorted == nil {
		r.sorted = append([]*Series(nil), r.series...)
		sort.Slice(r.sorted, func(i, j int) bool {
			a, b := r.sorted[i], r.sorted[j]
			if a.name != b.name {
				return a.name < b.name
			}
			return a.lstr < b.lstr
		})
	}
	return append([]*Series(nil), r.sorted...)
}

// Counter is a push-style monotone counter handle. Nil handles (from a
// disabled registry) absorb updates silently.
type Counter struct {
	v float64
}

// Add increases the counter. Negative deltas panic: counters are
// monotone by definition, and a negative delta is always a bug.
func (c *Counter) Add(d float64) {
	if c == nil {
		return
	}
	if d < 0 {
		panic("telemetry: negative counter delta")
	}
	c.v += d
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}
