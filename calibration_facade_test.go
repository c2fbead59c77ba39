package cxlfork

import (
	"testing"
	"time"
)

// TestRunWorkloadCalibrationMemoKeepsFingerprints runs the what-if
// sweep's four designs twice in one process. The second pass takes
// every calibration from the memo, and each of its reports must carry
// the fingerprint the first pass computed cold. The platform (3 GiB
// nodes) is one no other facade test calibrates, so the first pass
// really is cold.
func TestRunWorkloadCalibrationMemoKeepsFingerprints(t *testing.T) {
	cfg := smallConfig()
	cfg.NodeDRAM = 3 << 30
	workloads := make([]Workload, 0, len(WorkloadDesigns))
	for i, design := range WorkloadDesigns {
		workloads = append(workloads, Workload{
			Design:    design,
			RPS:       40,
			Duration:  time.Duration(2+i) * time.Second,
			Functions: []string{"Float", "Json"},
		})
	}

	pass := func() []*RunReport {
		var out []*RunReport
		for _, wl := range workloads {
			start := time.Now()
			rep, err := RunWorkload(cfg, wl, nil)
			if err != nil {
				t.Fatalf("%s: %v", wl.Design, err)
			}
			wall := time.Since(start)
			ph := rep.Phases
			if ph.Calibrate < 0 || ph.Build < 0 || ph.Provision < 0 || ph.Replay <= 0 {
				t.Fatalf("%s: implausible phases %+v", wl.Design, ph)
			}
			if sum := ph.Calibrate + ph.Build + ph.Provision + ph.Replay; sum > wall {
				t.Fatalf("%s: phases sum to %v, more than the call's %v", wl.Design, sum, wall)
			}
			out = append(out, rep)
		}
		return out
	}
	cold := pass()
	warm := pass()
	for i := range cold {
		if warm[i].Fingerprint != cold[i].Fingerprint || warm[i].Completed != cold[i].Completed {
			t.Fatalf("%s: warm-memo run %s (%d completed), cold %s (%d completed)",
				workloads[i].Design, warm[i].Fingerprint, warm[i].Completed,
				cold[i].Fingerprint, cold[i].Completed)
		}
		if cold[i].Completed == 0 {
			t.Fatalf("%s replayed nothing", workloads[i].Design)
		}
	}
}
