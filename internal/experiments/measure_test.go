package experiments

import (
	"testing"

	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/metrics"
)

// TestMeasureShapes checks the paper's headline shape claims on two
// representative functions (small cache-resident Float, large Bert).
func TestMeasureShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("mechanistic measurement is slow")
	}
	p := ExpParams()
	for _, name := range []string{"Float", "Bert"} {
		spec, _ := faas.ByName(name)
		fm, err := MeasureFunction(p, spec, AllScenarios)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cold := fm.ByScen[ScenCold]
		lf := fm.ByScen[ScenLocalFork]
		cr := fm.ByScen[ScenCRIU]
		mi := fm.ByScen[ScenMitosis]
		cx := fm.ByScen[ScenCXLfork]

		t.Logf("%s: coldInit=%v", name, fm.ColdInit)
		for _, m := range []Measure{cold, lf, cr, mi, cx, fm.ByScen[ScenCXLforkMoA], fm.ByScen[ScenCXLforkHT]} {
			t.Logf("  %-12s ckpt=%-10v restore=%-10v faults=%-10v exec=%-10v e2e=%-10v warm=%-10v localMB=%d",
				m.Scenario, m.Checkpoint, m.Restore, m.FaultTime, m.Exec, m.E2E, m.WarmSteady,
				int64(m.LocalPages)*4096>>20)
		}

		// Ordering: CXLfork restore < Mitosis restore < CRIU restore.
		if !(cx.Restore < mi.Restore && mi.Restore < cr.Restore) {
			t.Errorf("%s restore ordering broken: cxl=%v mit=%v criu=%v",
				name, cx.Restore, mi.Restore, cr.Restore)
		}
		// E2E: CXLfork fastest rfork; Cold slowest overall.
		if !(cx.E2E < mi.E2E && cx.E2E < cr.E2E) {
			t.Errorf("%s e2e ordering broken: cxl=%v mit=%v criu=%v", name, cx.E2E, mi.E2E, cr.E2E)
		}
		if cold.E2E < cr.E2E {
			t.Errorf("%s cold %v faster than CRIU %v", name, cold.E2E, cr.E2E)
		}
		// Memory: CXLfork < Mitosis < CRIU ≈ Cold.
		if !(cx.LocalPages < mi.LocalPages && mi.LocalPages < cr.LocalPages) {
			t.Errorf("%s memory ordering broken: cxl=%d mit=%d criu=%d",
				name, cx.LocalPages, mi.LocalPages, cr.LocalPages)
		}
		t.Logf("  ratios: criu/cxl=%s mit/cxl=%s cxl/lf=%s cold/cxl=%s memCXL/cold=%.2f",
			metrics.Ratio(cr.E2E, cx.E2E), metrics.Ratio(mi.E2E, cx.E2E),
			metrics.Ratio(cx.E2E, lf.E2E), metrics.Ratio(cold.E2E, cx.E2E),
			float64(cx.LocalPages)/float64(cold.LocalPages))
		// Restore ranges (§7.1): CXLfork restores in single-digit ms.
		if cx.Restore > 10*des.Millisecond {
			t.Errorf("%s CXLfork restore %v above paper's 6.1ms-ish bound", name, cx.Restore)
		}
	}
}

// BenchmarkMeasureFunction times the uncached calibration primitive on
// a small and a large function. MeasureAll memoizes, so the figure
// benchmarks that call it stop measuring calibration after their first
// iteration; this one keeps its cost visible.
func BenchmarkMeasureFunction(b *testing.B) {
	p := ExpParams()
	for _, name := range []string{"Float", "Bert"} {
		spec, _ := faas.ByName(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := MeasureFunction(p, spec, AllScenarios); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
