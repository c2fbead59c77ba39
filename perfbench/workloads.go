package main

import (
	"fmt"
	"time"

	"cxlfork"
	"cxlfork/internal/azure"
	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/params"
)

// session is one RunWorkload call: a platform and the what-if question
// asked of it.
type session struct {
	cfg cxlfork.Config
	wl  cxlfork.Workload
}

// setupKind says how a workload measures setup_s.
type setupKind int

const (
	// setupFirstTick reads setup_s as the wall time from the call to
	// the first OnSample tick, when a served client gets its first
	// sample frame. Extra samples come from sessions interrupted at
	// that tick.
	setupFirstTick setupKind = iota
	// setupOneTick reads setup_s as the wall time of a whole session
	// with the same Config and Workload replayed for one telemetry
	// period of virtual time.
	setupOneTick
)

// workload is one benchmark workload: the sessions of one measured
// unit, in order, and how the run observes them.
type workload struct {
	name string
	// served installs an OnSample sink the way internal/serve does.
	served bool
	// unit is the sessions one measured unit runs in sequence.
	unit []session
	// setup says how setup_s is read; setupProbes is how many extra
	// setup-only sessions of unit[0] run before the measured units.
	setup       setupKind
	setupProbes int
	// pinned, when set, is the fingerprint and completed count every
	// full session must report (the committed BENCH_0007.json replay).
	pinned *pinnedReplay
}

// pinnedReplay is a committed golden result.
type pinnedReplay struct {
	fingerprint string
	completed   int
}

// bench0007 is the Azure replay pinned in BENCH_0007.json, which
// azureReplay reproduces through RunWorkload.
var bench0007 = pinnedReplay{fingerprint: "501cafc1a4e62d9f", completed: 1053118}

// oneTick is the virtual length of a setup-only session: one telemetry
// sampling period.
const oneTick = 100 * time.Millisecond

// whatifSweep is a capacity planner's session sequence: every design on
// the paper's two-node platform with the full function suite, differing
// only in the replay fields of the Workload. Each session replays at
// least 2400 requests, so its P99 has at least 24 samples beyond it.
// The two CXLfork designs get the high rates and short windows: their
// telemetry ticks cost the most host time. CRIU-CXL and Mitosis-CXL
// ticks are cheap, so those sessions replay 9600 requests for steadier
// latency figures.
func whatifSweep(seed int64) workload {
	cfg := cxlfork.DefaultConfig()
	mk := func(design string, rps float64, dur, keepAlive time.Duration) session {
		return session{cfg: cfg, wl: cxlfork.Workload{
			Design:    design,
			RPS:       rps,
			Duration:  dur,
			KeepAlive: keepAlive,
			Seed:      seed,
		}}
	}
	return workload{
		name:   "whatif-sweep",
		served: true,
		unit: []session{
			mk("CXLfork", 240, 10*time.Second, 0),
			mk("CXLfork-MoW", 120, 20*time.Second, 2*time.Second),
			mk("CRIU-CXL", 60, 160*time.Second, 0),
			mk("Mitosis-CXL", 30, 320*time.Second, 5*time.Second),
		},
		setup: setupFirstTick,
	}
}

// azureReplay is the committed BENCH_0007 million-request Azure trace:
// 4 nodes, Float and Json, CXLfork migrate-on-write, a 12 GiB porter
// node budget, 2500 rps for 400 virtual seconds, trace seed 7.
//
// The trace seed stays 7 whatever the benchmark seed: at 2500 rps the
// trace's bursts overload the porter, so every trace seed lands in a
// different queueing regime (seeds 1-10 replay in 5.2-8.3 s with a P99
// of 6-28 virtual seconds) and a seeded replay would measure the trace,
// not the program. Node DRAM is 16 GiB rather than the 128 GiB platform
// default: the budget, not DRAM, bounds the porter, so the results are
// unchanged, and four eagerly built 128 GiB frame pools would need about
// 7 GB of host memory.
func azureReplay() session {
	return session{
		cfg: cxlfork.Config{Nodes: 4, NodeDRAM: 16 << 30},
		wl: cxlfork.Workload{
			Design:          "CXLfork-MoW",
			RPS:             2500,
			Duration:        400 * time.Second,
			Functions:       []string{"Float", "Json"},
			NodeBudgetBytes: 12 << 30,
			Seed:            7,
		},
	}
}

func replayBatch(int64) workload {
	return workload{
		name:        "replay-batch",
		unit:        []session{azureReplay()},
		setup:       setupOneTick,
		setupProbes: 3,
		pinned:      &bench0007,
	}
}

func replayServed(seed int64) workload {
	w := replayBatch(seed)
	w.name = "replay-served"
	w.served = true
	w.setup = setupFirstTick
	w.setupProbes = 2
	return w
}

var workloadCtors = []struct {
	name string
	ctor func(int64) workload
}{
	{"whatif-sweep", whatifSweep},
	{"replay-batch", replayBatch},
	{"replay-served", replayServed},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloadCtors {
		out = append(out, w.name)
	}
	return out
}

func lookupWorkload(name string, seed int64) (workload, bool) {
	for _, w := range workloadCtors {
		if w.name == name {
			return w.ctor(seed), true
		}
	}
	return workload{}, false
}

// The helpers below restate, for the traced run and the checks, how
// RunWorkload turns a Config and Workload into simulator inputs. The
// traced run's fingerprints must equal RunWorkload's, so any drift here
// fails the run instead of skewing its numbers.

// resolved is a session with RunWorkload's defaults applied.
type resolved struct {
	p, calib params.Params
	nodes    int
	specs    []faas.Spec
	design   string
	trace    azure.TraceConfig
}

// resolve applies RunWorkload's defaults to s. served mirrors
// RunOptions.OnSample being set, which turns telemetry on.
func resolve(s session, served bool) (resolved, error) {
	cfg, wl := s.cfg, s.wl
	r := resolved{design: wl.Design, nodes: cfg.Nodes}
	if r.design == "" {
		r.design = "CXLfork"
	}
	if r.nodes <= 0 {
		r.nodes = 2
	}
	rps, dur, seed := wl.RPS, wl.Duration, wl.Seed
	if rps <= 0 {
		rps = 60
	}
	if dur <= 0 {
		dur = 10 * time.Second
	}
	if seed == 0 {
		seed = cfg.Seed
	}
	if seed == 0 {
		seed = 7
	}

	r.specs = faas.Suite()
	if len(wl.Functions) > 0 {
		r.specs = nil
		for _, name := range wl.Functions {
			spec, ok := faas.ByName(name)
			if !ok {
				return r, fmt.Errorf("unknown function %q", name)
			}
			r.specs = append(r.specs, spec)
		}
	}

	p := params.Default()
	if cfg.NodeDRAM > 0 {
		p.NodeDRAMBytes = cfg.NodeDRAM
	}
	if cfg.CXLCapacity > 0 {
		p.CXLBytes = cfg.CXLCapacity
	}
	if cfg.CXLLatency > 0 {
		p.CXLLatency = des.Time(cfg.CXLLatency)
	}
	if cfg.LLC > 0 {
		p.LLCBytes = cfg.LLC
	}
	if cfg.Cores > 0 {
		p.CoresPerNode = cfg.Cores
	}
	if served {
		p.TelemetryEnabled = true
	}
	if wl.KeepAlive > 0 {
		p.KeepAlive = des.Time(wl.KeepAlive)
	}
	r.p = p
	r.calib = p
	r.calib.TelemetryEnabled = false

	var names []string
	for _, spec := range r.specs {
		names = append(names, spec.Name)
	}
	loads := azure.DefaultLoads(names)
	for i := range loads {
		if w, ok := wl.Weights[loads[i].Function]; ok {
			loads[i].Weight = w
		}
	}
	r.trace = azure.TraceConfig{TotalRPS: rps, Duration: des.Time(dur), Loads: loads, Seed: seed}
	return r, nil
}

// arrivals is the number of requests the session's trace generates.
func arrivals(s session) (int, error) {
	r, err := resolve(s, false)
	if err != nil {
		return 0, err
	}
	return len(azure.Generate(r.trace)), nil
}
