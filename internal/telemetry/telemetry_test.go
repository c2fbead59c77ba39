package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"cxlfork/internal/des"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry must report disabled")
	}
	r.Gauge("g", "h", func(des.Time) float64 { return 1 })
	r.CounterFunc("c", "h", func(des.Time) float64 { return 1 })
	c := r.Counter("p", "h")
	if c != nil {
		t.Fatal("nil registry must hand out nil counters")
	}
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	r.Sample(0)
	if r.Ticks() != 0 || r.Dropped() != 0 || r.Series() != nil || r.Lookup("g") != nil {
		t.Fatal("nil registry must absorb every call")
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != ErrDisabled {
		t.Fatalf("WritePrometheus on nil = %v, want ErrDisabled", err)
	}
	if err := r.WriteCSV(&bytes.Buffer{}); err != ErrDisabled {
		t.Fatalf("WriteCSV on nil = %v, want ErrDisabled", err)
	}
}

func TestRingOverwriteAndDropAccounting(t *testing.T) {
	r := New(des.Millisecond, 4)
	var v float64
	r.Gauge("g", "test gauge", func(des.Time) float64 { return v })
	for i := 0; i < 7; i++ {
		v = float64(i)
		r.Sample(des.Time(i) * des.Millisecond)
	}
	s := r.Lookup("g")
	if s == nil {
		t.Fatal("series not found")
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want ring cap 4", s.Len())
	}
	if s.Dropped() != 3 || r.Dropped() != 3 {
		t.Fatalf("dropped = %d/%d, want 3", s.Dropped(), r.Dropped())
	}
	got := s.Samples()
	for i, sm := range got {
		want := float64(3 + i) // samples 0..2 overwritten
		if sm.V != want || sm.T != des.Time(3+i)*des.Millisecond {
			t.Fatalf("sample %d = %+v, want v=%g", i, sm, want)
		}
	}
	last, ok := s.Last()
	if !ok || last.V != 6 {
		t.Fatalf("Last = %+v,%v want v=6", last, ok)
	}
}

func TestWindowIteration(t *testing.T) {
	r := New(des.Millisecond, 16)
	r.Gauge("g", "h", func(now des.Time) float64 { return float64(now) })
	for i := 0; i < 10; i++ {
		r.Sample(des.Time(i))
	}
	var n int
	r.Lookup("g").Window(3, 6, func(sm Sample) { n++ })
	if n != 4 {
		t.Fatalf("window [3,6] saw %d samples, want 4", n)
	}
}

func TestDuplicateSeriesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	r := New(0, 8)
	r.Gauge("g", "h", func(des.Time) float64 { return 0 }, L("node", "n0"))
	r.Gauge("g", "h", func(des.Time) float64 { return 0 }, L("node", "n0"))
}

func TestLabelsSortedAndDistinct(t *testing.T) {
	r := New(0, 8)
	r.Gauge("g", "h", func(des.Time) float64 { return 0 }, L("z", "1"), L("a", "2"))
	s := r.Lookup(`g{a="2",z="1"}`)
	if s == nil {
		t.Fatal("labels must be sorted into the key")
	}
	// Same name, different labels: distinct series.
	r.Gauge("g", "h", func(des.Time) float64 { return 0 }, L("a", "3"))
	if len(r.Series()) != 2 {
		t.Fatalf("got %d series, want 2", len(r.Series()))
	}
}

func TestCounterPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add must panic")
		}
	}()
	New(0, 8).Counter("c_total", "h").Add(-1)
}

// buildRegistry assembles a small registry deterministically — the
// exporter tests run it twice and require byte-identical output.
func buildRegistry() *Registry {
	r := New(100*des.Millisecond, 32)
	var occ float64
	r.Gauge("cxl_utilization", "device occupancy fraction", func(des.Time) float64 { return occ })
	c := r.Counter("kernel_faults_total", "page faults", L("node", "node0"))
	r.Gauge("kernel_tasks", "live tasks", func(now des.Time) float64 { return float64(now / des.Second) }, L("node", "node0"))
	for i := 0; i < 5; i++ {
		occ = 0.1 * float64(i)
		c.Add(float64(i * 3))
		r.Sample(des.Time(i) * 100 * des.Millisecond)
	}
	return r
}

func TestExportDeterminismAndShape(t *testing.T) {
	var a, b bytes.Buffer
	if err := buildRegistry().WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("prometheus exports of identical registries differ")
	}
	out := a.String()
	for _, want := range []string{
		"# HELP cxl_utilization device occupancy fraction",
		"# TYPE cxl_utilization gauge",
		"# TYPE kernel_faults_total counter",
		`kernel_faults_total{node="node0"} 30 400`,
		"cxl_utilization 0.4 400",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}

	var c1, c2 bytes.Buffer
	if err := buildRegistry().WriteCSV(&c1); err != nil {
		t.Fatal(err)
	}
	if err := buildRegistry().WriteCSV(&c2); err != nil {
		t.Fatal(err)
	}
	if c1.String() != c2.String() {
		t.Fatal("CSV exports of identical registries differ")
	}
	if !strings.Contains(c1.String(), `"cxl_utilization",400000000,0.4`) {
		t.Fatalf("CSV missing timeline row:\n%s", c1.String())
	}

	var om bytes.Buffer
	if err := buildRegistry().WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(om.String(), "# EOF\n") {
		t.Fatal("OpenMetrics output must end with # EOF")
	}
	if !strings.Contains(om.String(), "# TYPE kernel_faults counter") {
		t.Fatalf("OpenMetrics must strip _total from the family name:\n%s", om.String())
	}

	var j1, j2 bytes.Buffer
	if err := buildRegistry().WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := buildRegistry().WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if j1.String() != j2.String() {
		t.Fatal("JSON exports of identical registries differ")
	}
}

// Prometheus requires one HELP/TYPE block per metric name even when
// several labeled series share it; a name that sorts between a bare
// series and its labeled siblings must not split the block.
func TestPrometheusGroupsFamilies(t *testing.T) {
	r := New(0, 8)
	zero := func(des.Time) float64 { return 0 }
	r.Gauge("m", "h", zero, L("node", "a"))
	r.Gauge("m", "h", zero, L("node", "b"))
	r.Gauge("m_x", "h", zero)
	r.Sample(0)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "# TYPE m gauge"); n != 1 {
		t.Fatalf("family m has %d TYPE lines, want 1:\n%s", n, buf.String())
	}
}

func TestSeriesAccessors(t *testing.T) {
	reg := New(100*des.Millisecond, 8)
	if reg.SampleEvery() != 100*des.Millisecond {
		t.Fatal("SampleEvery mismatch")
	}
	reg.Gauge("acc_gauge", "an accessor gauge", func(des.Time) float64 { return 1 }, L("node", "n0"))
	s := reg.Lookup(`acc_gauge{node="n0"}`)
	if s == nil {
		t.Fatal("labeled series not found")
	}
	if s.Name() != "acc_gauge" || s.Help() != "an accessor gauge" || s.Kind() != KindGauge {
		t.Fatalf("accessor mismatch: %q %q %v", s.Name(), s.Help(), s.Kind())
	}
	if got := s.Labels(); len(got) != 1 || got[0] != L("node", "n0") {
		t.Fatalf("labels = %v", got)
	}
}

// A sink that panics must lose only its own delivery: the tick still
// counts, every series still appends its point, the sink is
// uninstalled, and later ticks run clean (DESIGN.md §16 hardening).
func TestPanickingSinkIsAbsorbedAndUninstalled(t *testing.T) {
	r := New(0, 8)
	r.Gauge("g", "h", func(now des.Time) float64 { return float64(now) })
	calls := 0
	r.SetSink(func(des.Time) {
		calls++
		panic("broken exporter")
	})
	r.Sample(10)
	r.Sample(20)
	if calls != 1 {
		t.Fatalf("sink called %d times, want 1 (uninstall after panic)", calls)
	}
	if r.SinkPanics() != 1 {
		t.Fatalf("SinkPanics = %d, want 1", r.SinkPanics())
	}
	if r.Ticks() != 2 {
		t.Fatalf("ticks = %d, want 2 — panic must not eat the tick", r.Ticks())
	}
	s := r.Lookup("g")
	if s.Len() != 2 {
		t.Fatalf("series has %d samples, want 2", s.Len())
	}
	if got := s.Samples(); got[0] != (Sample{T: 10, V: 10}) || got[1] != (Sample{T: 20, V: 20}) {
		t.Fatalf("samples perturbed: %v", got)
	}
}

// The panicking-sink path must not change what was sampled: a registry
// fed identically with a healthy sink, a panicking sink, and no sink
// exports byte-identical expositions.
func TestSinkFailureDoesNotAlterExport(t *testing.T) {
	build := func(sink SinkFunc) string {
		r := New(0, 8)
		v := 0.0
		r.Gauge("g", "h", func(des.Time) float64 { v++; return v })
		r.SetSink(sink)
		for i := des.Time(1); i <= 4; i++ {
			r.Sample(i * 10)
		}
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	none := build(nil)
	healthy := build(func(des.Time) {})
	// A "slow" sink (burning work inside the tick) and a panicking one:
	// neither may leak into the sampled values.
	slow := build(func(des.Time) {
		x := 0
		for i := 0; i < 1000; i++ {
			x += i
		}
		_ = x
	})
	broken := build(func(des.Time) { panic("boom") })
	if healthy != none || slow != none || broken != none {
		t.Fatal("sink behavior leaked into the exported samples")
	}
}

// SinkPanics on a nil registry must be as safe as every other method.
func TestSinkPanicsNilSafe(t *testing.T) {
	var r *Registry
	if r.SinkPanics() != 0 {
		t.Fatal("nil registry reports sink panics")
	}
}

// Series keeps its (name, labels) order across registrations made
// after a previous call, and a caller reordering the returned slice
// cannot disturb the next call's order.
func TestSeriesOrderAcrossRegistrations(t *testing.T) {
	r := New(0, 8)
	zero := func(des.Time) float64 { return 0 }
	r.Gauge("m", "h", zero, L("node", "b"))
	r.Gauge("z", "h", zero)
	keys := func() string {
		var ks []string
		for _, s := range r.Series() {
			ks = append(ks, s.Key())
		}
		return strings.Join(ks, " ")
	}
	if got, want := keys(), `m{node="b"} z`; got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
	got := r.Series()
	got[0], got[1] = got[1], got[0]
	r.Gauge("m", "h", zero, L("node", "a"))
	r.Gauge("a", "h", zero)
	if got, want := keys(), `a m{node="a"} m{node="b"} z`; got != want {
		t.Fatalf("order after late registration = %s, want %s", got, want)
	}
}
