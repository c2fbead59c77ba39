package cxlfork

import (
	"strings"
	"testing"
	"time"
)

// xrayWorkload is a small replay that still exercises every porter
// request class (warm starts, fork restores, scratch colds).
func xrayWorkload() Workload {
	return Workload{
		RPS:       40,
		Duration:  3 * time.Second,
		Functions: []string{"Json", "Cnn"},
		KeepAlive: 100 * time.Millisecond,
	}
}

// xrayDesignGoldens pins the attributed report's fold per design at
// xrayWorkload: the content of the blame decomposition, not only its
// rerun stability. Mitosis-CXL is the one design whose spawns take the
// parent-uplink copy, so it is the only pin covering that component.
var xrayDesignGoldens = map[string]uint64{
	"CXLfork":     0xa42b052c6f7663ef,
	"CXLfork-MoW": 0xbb6e1386db25d781,
	"CRIU-CXL":    0x215b32f27a5b8d2b,
	"Mitosis-CXL": 0xf45d192524d35f47,
}

// runDesignGoldens pins each design's RunReport.Fingerprint at
// xrayWorkload: the replay's own results, independent of attribution,
// so a refactor of the shared run path cannot move every side at once.
var runDesignGoldens = map[string]string{
	"CXLfork":     "b9bd063c3428de0f",
	"CXLfork-MoW": "e6bc0eff6644444c",
	"CRIU-CXL":    "f1bc32e3f351c293",
	"Mitosis-CXL": "a081f997cdbcb4c6",
}

// TestRunWorkloadXRayObservational pins the facade-level neutrality
// contract for every design: Config.XRay attaches a blame report to
// the run without changing the simulated results, so the report
// fingerprint matches a plain run — and a second attributed run
// renders the report byte-identically, with the pinned fold.
func TestRunWorkloadXRayObservational(t *testing.T) {
	for _, design := range WorkloadDesigns {
		t.Run(design, func(t *testing.T) {
			wl := xrayWorkload()
			wl.Design = design
			plain, err := RunWorkload(smallConfig(), wl, nil)
			if err != nil {
				t.Fatal(err)
			}
			if plain.XRay != nil {
				t.Fatal("XRay report present without Config.XRay")
			}
			if want := runDesignGoldens[design]; plain.Fingerprint != want {
				t.Fatalf("run fingerprint %s, golden %s", plain.Fingerprint, want)
			}

			cfg := smallConfig()
			cfg.XRay = true
			a, err := RunWorkload(cfg, wl, nil)
			if err != nil {
				t.Fatal(err)
			}
			if a.Fingerprint != plain.Fingerprint {
				t.Fatalf("attribution perturbed the run: %s != %s", a.Fingerprint, plain.Fingerprint)
			}
			if a.XRay == nil || a.XRay.Requests == 0 {
				t.Fatalf("empty XRay report: %+v", a.XRay)
			}
			b, err := RunWorkload(cfg, wl, nil)
			if err != nil {
				t.Fatal(err)
			}
			if a.XRay.Text() != b.XRay.Text() || a.XRay.Fingerprint() != b.XRay.Fingerprint() {
				t.Fatal("attributed reruns rendered different reports")
			}
			if got, want := a.XRay.Fingerprint(), xrayDesignGoldens[design]; got != want {
				t.Fatalf("xray report fingerprint %#x, golden %#x", got, want)
			}
			// Porter-fed attribution decomposes exactly: no residual anywhere.
			for _, cb := range a.XRay.Classes {
				if cb.ResidualNS != 0 {
					t.Fatalf("class %s carries residual %d", cb.Class, cb.ResidualNS)
				}
			}
		})
	}
}

// TestRunWorkloadSinkFailureKeepsFingerprint is the end-to-end pin for
// the telemetry sink hardening: a panicking OnSample consumer loses its
// stream but must not change what was simulated.
func TestRunWorkloadSinkFailureKeepsFingerprint(t *testing.T) {
	wl := xrayWorkload()
	plain, err := RunWorkload(smallConfig(), wl, nil)
	if err != nil {
		t.Fatal(err)
	}
	ticks := 0
	broken, err := RunWorkload(smallConfig(), wl, &RunOptions{
		OnSample: func(Tick) {
			ticks++
			panic("broken sink")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ticks != 1 {
		t.Fatalf("panicking sink called %d times, want 1 (uninstalled after first panic)", ticks)
	}
	if broken.Fingerprint != plain.Fingerprint {
		t.Fatalf("sink panic perturbed the run: %s != %s", broken.Fingerprint, plain.Fingerprint)
	}
}

// TestSystemXRayReport covers the ops-facade path: attribution over
// trace spans needs both switches on, and then classifies the manual
// checkpoint/restore operations.
func TestSystemXRayReport(t *testing.T) {
	sys := NewSystem(smallConfig())
	if sys.XRayEnabled() {
		t.Fatal("XRay enabled by default")
	}
	if _, err := sys.XRayReport(); err == nil || !strings.Contains(err.Error(), "Config.XRay") {
		t.Fatalf("disabled XRayReport error = %v", err)
	}

	cfg := smallConfig()
	cfg.XRay = true
	sys = NewSystem(cfg)
	if !sys.XRayEnabled() {
		t.Fatal("XRay not enabled")
	}
	if _, err := sys.XRayReport(); err == nil || !strings.Contains(err.Error(), "Config.Trace") {
		t.Fatalf("untraced XRayReport error = %v", err)
	}

	cfg.Trace = true
	sys = NewSystem(cfg)
	fn := deployWarm(t, sys, "Json")
	ck, err := sys.Checkpoint(fn, CXLfork, "xr")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Restore(1, ck, RestoreOptions{}); err != nil {
		t.Fatal(err)
	}
	r, err := sys.XRayReport()
	if err != nil {
		t.Fatal(err)
	}
	if r.Class("op/checkpoint") == nil || r.Class("op/restore") == nil {
		t.Fatalf("span-derived classes missing:\n%s", r.Text())
	}
}
