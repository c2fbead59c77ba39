package metrics

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"cxlfork/internal/des"
)

// oracle is the sort-everything reference the incremental recorder must
// match: it keeps every sample and fully re-sorts a copy at each query.
type oracle struct{ samples []des.Time }

func (o *oracle) sorted() []des.Time {
	s := slices.Clone(o.samples)
	slices.Sort(s)
	return s
}

func (o *oracle) percentile(p float64) des.Time {
	s := o.sorted()
	if len(s) == 0 {
		return 0
	}
	if p <= 0 {
		return s[0]
	}
	rank := min(max(int(math.Ceil(p/100*float64(len(s)))), 1), len(s))
	return s[rank-1]
}

func (o *oracle) quantile(p float64) des.Time {
	s := o.sorted()
	switch {
	case len(s) == 0:
		return 0
	case len(s) == 1 || p <= 0:
		return s[0]
	case p >= 100:
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if frac == 0 {
		return s[lo]
	}
	a, b := float64(s[lo]), float64(s[lo+1])
	return des.Time(math.Round(a + frac*(b-a)))
}

var oraclePs = []float64{0, 0.1, 50, 99, 99.9, 100}

// checkOracle asserts every estimator of r equals the reference at
// every probed p.
func checkOracle(t *testing.T, step string, r *LatencyRecorder, o *oracle) {
	t.Helper()
	if r.Count() != len(o.samples) {
		t.Fatalf("%s: Count = %d, want %d", step, r.Count(), len(o.samples))
	}
	for _, p := range oraclePs {
		if got, want := r.Percentile(p), o.percentile(p); got != want {
			t.Fatalf("%s: Percentile(%g) = %d, want %d", step, p, got, want)
		}
		if got, want := r.Quantile(p), o.quantile(p); got != want {
			t.Fatalf("%s: Quantile(%g) = %d, want %d", step, p, got, want)
		}
	}
}

// TestRecorderMergeCases pins the merge paths of the incremental sort
// one at a time: a tail entirely above the prefix (no merge), a new
// minimum (every prefix sample moves), duplicates straddling the
// boundary, Presort followed by more Records, and reuse after Reset.
func TestRecorderMergeCases(t *testing.T) {
	r := NewLatencyRecorder()
	o := &oracle{}
	rec := func(vs ...des.Time) {
		for _, v := range vs {
			r.Record(v)
			o.samples = append(o.samples, v)
		}
	}
	rec(50, 10, 30)
	checkOracle(t, "initial", r, o)
	rec(60, 70)
	checkOracle(t, "tail above prefix", r, o)
	rec(5)
	checkOracle(t, "new minimum", r, o)
	rec(30, 30, 10, 70, 5)
	checkOracle(t, "duplicates", r, o)
	r.Presort()
	rec(1, 100, 40)
	checkOracle(t, "records after Presort", r, o)
	r.Presort()
	r.Presort()
	checkOracle(t, "repeated Presort", r, o)
	r.Reset()
	o.samples = o.samples[:0]
	checkOracle(t, "after Reset", r, o)
	rec(9, 3)
	checkOracle(t, "reuse after Reset", r, o)
	rec(2)
	checkOracle(t, "new minimum after Reset", r, o)
}

// TestRecorderOracle drives random interleavings of Record bursts,
// queries, Presort and Reset against the sort-everything reference and
// asserts equality at every query. Values come from a narrow range so
// duplicates are common, and bursts are sometimes drawn below the
// current minimum so the merge has to move the whole prefix.
func TestRecorderOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewLatencyRecorder()
		o := &oracle{}
		floor := des.Time(1000)
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				for n := rng.Intn(40); n > 0; n-- {
					var v des.Time
					if rng.Intn(8) == 0 {
						floor -= des.Time(rng.Intn(3))
						v = floor
					} else {
						v = floor + des.Time(rng.Intn(200))
					}
					r.Record(v)
					o.samples = append(o.samples, v)
				}
			case op < 8:
				checkOracle(t, "query", r, o)
			case op < 9:
				r.Presort()
				checkOracle(t, "presort", r, o)
			default:
				if rng.Intn(4) == 0 {
					r.Reset()
					o.samples = o.samples[:0]
				}
				checkOracle(t, "reset", r, o)
			}
		}
	}
}

var tickSink des.Time

// BenchmarkRecorderTick measures one telemetry tick on a long-running
// recorder: 30 fresh samples land on a 120K-sample history, then the
// tick reads P99. The history is refilled every 1000 ticks so its size
// does not grow with b.N.
func BenchmarkRecorderTick(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	r := NewLatencyRecorder()
	fill := func() {
		r.Reset()
		for i := 0; i < 120_000; i++ {
			r.Record(des.Time(rng.Int63n(int64(des.Second))))
		}
		r.Presort()
	}
	fill()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%1000 == 0 {
			b.StopTimer()
			fill()
			b.StartTimer()
		}
		for j := 0; j < 30; j++ {
			r.Record(des.Time(rng.Int63n(int64(des.Second))))
		}
		tickSink = r.P99()
	}
}
