package experiments

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/params"
)

// memoSpec is the cheapest suite function to calibrate.
func memoSpec(t *testing.T) faas.Spec {
	t.Helper()
	spec, ok := faas.ByName("Float")
	if !ok {
		t.Fatal("Float missing from the suite")
	}
	return spec
}

// memoScenarioSets are the scenario sets RunWorkload's designs ask for.
var memoScenarioSets = [][]Scenario{
	{ScenCold, ScenCXLfork},
	{ScenCold, ScenCRIU},
	{ScenCold, ScenMitosis},
	{ScenCold, ScenCXLfork, ScenCXLforkMoA, ScenCXLforkHT},
}

// memoParams are two platforms that calibrate differently.
func memoParams() []params.Params {
	slow := ExpParams()
	slow.CXLLatency = 250 * des.Nanosecond
	return []params.Params{ExpParams(), slow}
}

func (c *calibMemo) stats() (computed int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.fifo) != len(c.entries) {
		panic("calibration memo: FIFO and index disagree")
	}
	return c.computed, len(c.entries)
}

// TestCalibrationMemoMatchesMeasureFunction is the memo's oracle: a
// cold and a warm MeasureAll both equal a fresh MeasureFunction, on
// every scenario set and platform, whatever order the scenarios are
// listed in.
func TestCalibrationMemoMatchesMeasureFunction(t *testing.T) {
	if len(AllScenarios) > 8 {
		t.Fatalf("%d scenarios overflow calibKey's uint8 scenario mask", len(AllScenarios))
	}
	spec := memoSpec(t)
	for _, p := range memoParams() {
		for _, scens := range memoScenarioSets {
			fresh, err := MeasureFunction(p, spec, scens)
			if err != nil {
				t.Fatalf("MeasureFunction(%v): %v", scens, err)
			}
			reversed := make([]Scenario, 0, len(scens)+1)
			for i := len(scens) - 1; i >= 0; i-- {
				reversed = append(reversed, scens[i])
			}
			reversed = append(reversed, scens[0])
			for _, order := range [][]Scenario{scens, scens, reversed} {
				ms, err := MeasureAll(p, []faas.Spec{spec}, order)
				if err != nil {
					t.Fatalf("MeasureAll(%v): %v", order, err)
				}
				if !reflect.DeepEqual(ms[0], fresh) {
					t.Fatalf("memoized %v differs from MeasureFunction:\n got %+v\nwant %+v", order, ms[0], fresh)
				}
			}
		}
	}
}

// TestCalibrationMemoBound fills the memo past its capacity: it never
// holds more than calibMemoCap entries, it evicts the oldest first,
// and an evicted key recomputes to an equal result.
func TestCalibrationMemoBound(t *testing.T) {
	m := newCalibMemo()
	spec := memoSpec(t)
	scens := []Scenario{ScenCold, ScenCXLfork}
	first := calibKey{p: ExpParams(), spec: spec, scens: scenarioMask(scens)}
	calibrate := func() (*FnMeasurement, error) { return MeasureFunction(first.p, spec, scens) }
	want, err := m.get(first, calibrate)
	if err != nil {
		t.Fatal(err)
	}

	fake := func() (*FnMeasurement, error) {
		return &FnMeasurement{Spec: spec, ByScen: map[Scenario]Measure{}}, nil
	}
	for i := 1; i <= calibMemoCap+10; i++ {
		k := first
		k.p.CXLLatency = des.Time(i)
		if _, err := m.get(k, fake); err != nil {
			t.Fatal(err)
		}
		if _, n := m.stats(); n > calibMemoCap {
			t.Fatalf("memo holds %d entries, cap %d", n, calibMemoCap)
		}
	}
	if computed, n := m.stats(); computed != calibMemoCap+11 || n != calibMemoCap {
		t.Fatalf("computed %d with %d entries, want %d and %d", computed, n, calibMemoCap+11, calibMemoCap)
	}

	// The newest key is still resident; the first one was evicted.
	newest := first
	newest.p.CXLLatency = calibMemoCap + 10
	if _, err := m.get(newest, fake); err != nil {
		t.Fatal(err)
	}
	computedBefore, _ := m.stats()
	if computedBefore != calibMemoCap+11 {
		t.Fatal("a resident key was recomputed")
	}
	got, err := m.get(first, calibrate)
	if err != nil {
		t.Fatal(err)
	}
	if computed, _ := m.stats(); computed != computedBefore+1 {
		t.Fatal("the evicted key was not recomputed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recomputed calibration differs:\n got %+v\nwant %+v", got, want)
	}
}

// TestCalibrationMemoConcurrentMisses has eight goroutines miss on one
// key at once: the calibration runs once and every caller gets an
// equal result of its own.
func TestCalibrationMemoConcurrentMisses(t *testing.T) {
	m := newCalibMemo()
	spec := memoSpec(t)
	scens := []Scenario{ScenCold, ScenCXLfork}
	k := calibKey{p: ExpParams(), spec: spec, scens: scenarioMask(scens)}

	const callers = 8
	out := make([]*FnMeasurement, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			out[i], errs[i] = m.get(k, func() (*FnMeasurement, error) {
				return MeasureFunction(k.p, spec, scens)
			})
		}(i)
	}
	close(start)
	wg.Wait()

	if computed, _ := m.stats(); computed != 1 {
		t.Fatalf("%d concurrent misses ran %d calibrations, want 1", callers, computed)
	}
	for i := range out {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(out[i], out[0]) {
			t.Fatalf("caller %d got a different calibration", i)
		}
		if i > 0 && out[i] == out[0] {
			t.Fatalf("callers 0 and %d share one result", i)
		}
	}
}

// TestCalibrationMemoIsolatesCallers mutates a returned calibration in
// every way a caller could; the next caller still sees the original.
func TestCalibrationMemoIsolatesCallers(t *testing.T) {
	p := ExpParams()
	spec := memoSpec(t)
	scens := []Scenario{ScenCold, ScenCXLfork}
	want, err := MeasureFunction(p, spec, scens)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := MeasureAll(p, []faas.Spec{spec}, scens)
	if err != nil {
		t.Fatal(err)
	}
	victim := ms[0]
	victim.ColdInit = 0
	victim.Spec.Name = "mutated"
	m := victim.ByScen[ScenCXLfork]
	m.Restore = 0
	victim.ByScen[ScenCXLfork] = m
	delete(victim.ByScen, ScenCold)
	victim.ByScen[ScenMitosis] = Measure{}

	again, err := MeasureAll(p, []faas.Spec{spec}, scens)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again[0], want) {
		t.Fatalf("a caller's mutation reached the memo:\n got %+v\nwant %+v", again[0], want)
	}
}

// TestCalibrationMemoDoesNotCacheErrors checks a failed calibration is
// retried by the next caller, through MeasureAll on a platform too
// small to hold the function and through a compute that fails once or
// panics.
func TestCalibrationMemoDoesNotCacheErrors(t *testing.T) {
	spec := memoSpec(t)
	tiny := ExpParams()
	tiny.NodeDRAMBytes = 16 << 20
	for i := 0; i < 2; i++ {
		if _, err := MeasureAll(tiny, []faas.Spec{spec}, []Scenario{ScenCold}); err == nil {
			t.Fatal("a 16 MiB node calibrated Float")
		}
	}

	m := newCalibMemo()
	k := calibKey{p: ExpParams(), spec: spec}
	boom := errors.New("boom")
	calls := 0
	flaky := func() (*FnMeasurement, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return &FnMeasurement{Spec: spec, ByScen: map[Scenario]Measure{}}, nil
	}
	if _, err := m.get(k, flaky); !errors.Is(err, boom) {
		t.Fatalf("first call: err %v, want %v", err, boom)
	}
	if _, n := m.stats(); n != 0 {
		t.Fatalf("a failed calibration left %d entries", n)
	}
	if _, err := m.get(k, flaky); err != nil || calls != 2 {
		t.Fatalf("retry: err %v after %d calls, want success on call 2", err, calls)
	}

	k.scens = 1
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the compute's panic was swallowed")
			}
		}()
		m.get(k, func() (*FnMeasurement, error) { panic("calibration bug") })
	}()
	if _, err := m.get(k, flaky); err != nil {
		t.Fatalf("retry after panic: %v", err)
	}
}

// TestCalibrationUncachedRerun runs the uncached primitive twice on
// the full scenario set: in-process calibration must be deterministic,
// and the golden reruns no longer show it because they hit the memo.
func TestCalibrationUncachedRerun(t *testing.T) {
	p := ExpParams()
	spec := memoSpec(t)
	a, err := MeasureFunction(p, spec, AllScenarios)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureFunction(p, spec, AllScenarios)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("MeasureFunction reruns differ:\n%+v\n%+v", a, b)
	}
}
