package experiments

import (
	"strings"
	"testing"

	"cxlfork/internal/des"
)

// xrayTestConfig trims the attributed cell to the golden fabric test's
// load so the replays stay fast while the trunk still queues.
func xrayTestConfig() XRayExpConfig {
	cfg := DefaultXRayExpConfig()
	cfg.Fabric.RPS = 120
	cfg.Fabric.Duration = 4 * des.Second
	return cfg
}

// TestXRayObservational pins the tentpole's neutrality contract from
// the replay side: enabling attribution must not change the simulated
// results, so the attributed cell's fingerprint equals the same cell
// replayed by the plain fabric sweep (which runs with XRay off).
func TestXRayObservational(t *testing.T) {
	if testing.Short() {
		t.Skip("porter replays are slow")
	}
	cfg := xrayTestConfig()
	p := ExpParams()
	xr, err := XRaySweep(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fc := cfg.Fabric
	fc.Switches = []int{cfg.Switches}
	fc.Devices = []int{cfg.Devices}
	fr, err := FabricSweep(p, fc)
	if err != nil {
		t.Fatal(err)
	}
	for _, xrun := range xr.Runs {
		plain := fr.run(cfg.Switches, cfg.Devices, xrun.Policy)
		if plain == nil {
			t.Fatalf("policy %s missing from fabric sweep", xrun.Policy)
		}
		if xrun.Run.Fingerprint != plain.Fingerprint {
			t.Fatalf("policy %s: attributed fingerprint %#x != plain %#x — attribution perturbed the replay",
				xrun.Policy, xrun.Run.Fingerprint, plain.Fingerprint)
		}
	}
}

// goldenXRay pins the attributed sweep's report fold at
// xrayTestConfig: the content of the blame tables, heatmap and
// exemplars, not only their stability across reruns and workers.
const goldenXRay = 0x9d006fdc05944f76

// TestXRayDeterministicAcrossWorkersAndReruns pins the report side:
// the full rendered output (blame tables, heatmap, exemplars, fold)
// must be byte-identical across reruns and across SimWorkers 1/2/8,
// and its fold must equal goldenXRay.
func TestXRayDeterministicAcrossWorkersAndReruns(t *testing.T) {
	if testing.Short() {
		t.Skip("porter replays are slow")
	}
	cfg := xrayTestConfig()
	var want string
	var wantFP uint64
	for i, workers := range append([]int{goldenWorkerCounts[0]}, goldenWorkerCounts...) {
		p := ExpParams()
		p.SimWorkers = workers
		r, err := XRaySweep(p, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var b strings.Builder
		r.Render(&b)
		if i == 0 {
			want, wantFP = b.String(), r.Fingerprint()
			continue
		}
		if b.String() != want {
			t.Fatalf("workers=%d: rendered report diverged", workers)
		}
		if r.Fingerprint() != wantFP {
			t.Fatalf("workers=%d: xray fingerprint %#x, want %#x", workers, r.Fingerprint(), wantFP)
		}
	}
	if want == "" || wantFP == 0 {
		t.Fatal("empty report")
	}
	if wantFP != uint64(goldenXRay) {
		t.Fatalf("xray fingerprint %#x, golden %#x", wantFP, uint64(goldenXRay))
	}
}

// TestXRayExactDecomposition pins the attribution equation: for every
// porter-fed class the component shares sum to the end-to-end latency
// exactly (zero residual), and every exemplar balances individually.
func TestXRayExactDecomposition(t *testing.T) {
	if testing.Short() {
		t.Skip("porter replays are slow")
	}
	r, err := XRaySweep(ExpParams(), xrayTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, xrun := range r.Runs {
		rep := xrun.Report
		if rep == nil || rep.Requests == 0 {
			t.Fatalf("policy %s: empty report", xrun.Policy)
		}
		if rep.HottestLink() == "" {
			t.Fatalf("policy %s: no link heatmap", xrun.Policy)
		}
		for _, cb := range rep.Classes {
			if cb.ResidualNS != 0 {
				t.Fatalf("policy %s class %s: residual %d — decomposition not exact",
					xrun.Policy, cb.Class, cb.ResidualNS)
			}
			var comps int64
			for _, c := range cb.Components {
				comps += c.TotalNS
			}
			if comps != cb.TotalNS {
				t.Fatalf("policy %s class %s: components sum %d != total %d",
					xrun.Policy, cb.Class, comps, cb.TotalNS)
			}
			for _, ex := range cb.Exemplars {
				var sum int64
				for _, c := range ex.Components {
					sum += c.NS
				}
				if sum+ex.ResidualNS != ex.LatencyNS {
					t.Fatalf("policy %s class %s exemplar #%d: %d + residual %d != latency %d",
						xrun.Policy, cb.Class, ex.Seq, sum, ex.ResidualNS, ex.LatencyNS)
				}
			}
		}
	}
}
