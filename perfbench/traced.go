package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"cxlfork"
	"cxlfork/internal/azure"
	"cxlfork/internal/cluster"
	"cxlfork/internal/core"
	"cxlfork/internal/criu"
	"cxlfork/internal/des"
	"cxlfork/internal/experiments"
	"cxlfork/internal/mitosis"
	"cxlfork/internal/porter"
	"cxlfork/internal/rfork"
)

// span is the host cost of one call: wall time, heap allocation and
// GC work, read from outside the program.
type span struct {
	wall     time.Duration
	mallocs  uint64
	bytes    uint64
	gcCPU    float64
	gcCycles uint64
}

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

type probe struct {
	at      time.Time
	mallocs uint64
	bytes   uint64
	gcCPU   float64
	cycles  uint64
}

func sample() probe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcSamples)
	return probe{
		at:      time.Now(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcCPU:   gcSamples[0].Value.Float64(),
		cycles:  gcSamples[1].Value.Uint64(),
	}
}

// measure runs fn as one span.
func measure(fn func()) span {
	a := sample()
	fn()
	b := sample()
	return span{
		wall:     b.at.Sub(a.at),
		mallocs:  b.mallocs - a.mallocs,
		bytes:    b.bytes - a.bytes,
		gcCPU:    b.gcCPU - a.gcCPU,
		gcCycles: b.cycles - a.cycles,
	}
}

// scenariosFor is the calibration scenario set RunWorkload measures for
// a design.
func scenariosFor(design string) ([]experiments.Scenario, error) {
	switch design {
	case "CXLfork":
		return []experiments.Scenario{
			experiments.ScenCold, experiments.ScenCXLfork,
			experiments.ScenCXLforkMoA, experiments.ScenCXLforkHT,
		}, nil
	case "CXLfork-MoW":
		return []experiments.Scenario{experiments.ScenCold, experiments.ScenCXLfork}, nil
	case "CRIU-CXL":
		return []experiments.Scenario{experiments.ScenCold, experiments.ScenCRIU}, nil
	case "Mitosis-CXL":
		return []experiments.Scenario{experiments.ScenCold, experiments.ScenMitosis}, nil
	}
	return nil, fmt.Errorf("unknown design %q", design)
}

// porterConfig is the porter configuration RunWorkload builds for a
// design.
func porterConfig(design string, c *cluster.Cluster, profiles map[porter.ProfileKey]porter.Profile, seed, budget int64) porter.Config {
	pcfg := porter.Config{Profiles: profiles, Seed: seed, NodeBudgetBytes: budget}
	switch design {
	case "CRIU-CXL":
		pcfg.Mechanism = criu.New(c.CXLFS)
	case "Mitosis-CXL":
		pcfg.Mechanism = mitosis.New()
	case "CXLfork-MoW":
		pcfg.Mechanism = core.New(c.Dev)
		pol := rfork.MigrateOnWrite
		pcfg.StaticPolicy = &pol
	default:
		pcfg.Mechanism = core.New(c.Dev)
		pcfg.DynamicTiering = true
	}
	return pcfg
}

// traced is one session driven phase by phase.
type traced struct {
	wall                                             time.Duration
	calibrate, build, provision, generate, replay    span
	events                                           uint64
	ticks                                            int64
	sinkTime                                         time.Duration
	occupancy                                        time.Duration
	arrivals                                         int
	fingerprint                                      string
	completed, warm, coldForks, scratch, failedRests int
	evictions                                        int64
}

// coverage is the share of the session's wall time the five phase
// spans account for.
func (t traced) coverage() float64 {
	sum := t.calibrate.wall + t.build.wall + t.provision.wall + t.generate.wall + t.replay.wall
	return sum.Seconds() / t.wall.Seconds()
}

// tracedSession makes the public calls RunWorkload makes, in its order,
// one span per call. One Device.Occupancy call after provisioning is
// timed as a probe and left out of the session's wall time.
func tracedSession(s session, served bool) (traced, error) {
	var t traced
	r, err := resolve(s, served)
	if err != nil {
		return t, err
	}
	scens, err := scenariosFor(r.design)
	if err != nil {
		return t, err
	}
	runtime.GC()
	start := time.Now()

	var profiles map[porter.ProfileKey]porter.Profile
	t.calibrate = measure(func() {
		var ms []*experiments.FnMeasurement
		ms, err = experiments.MeasureAll(r.calib, r.specs, scens)
		if err == nil {
			profiles = experiments.BuildProfiles(ms)
		}
	})
	if err != nil {
		return t, err
	}
	var c *cluster.Cluster
	t.build = measure(func() { c, err = cluster.New(r.p, r.nodes) })
	if err != nil {
		return t, err
	}
	var po *porter.Porter
	t.provision = measure(func() {
		seed := r.trace.Seed
		po = porter.New(c, porterConfig(r.design, c, profiles, seed, s.wl.NodeBudgetBytes))
		err = po.Setup(r.specs)
	})
	if err != nil {
		return t, err
	}
	o0 := time.Now()
	if c.Dev.Occupancy().Total() < 0 {
		return t, fmt.Errorf("negative device occupancy")
	}
	t.occupancy = time.Since(o0)

	var trace []azure.Request
	t.generate = measure(func() { trace = azure.Generate(r.trace) })
	t.arrivals = len(trace)

	var obs *observer
	var results porter.Results
	t.replay = measure(func() {
		if served {
			obs = newObserver(start, s.wl.Design, false)
			installSink(c, po, obs)
		}
		ev0 := c.Eng.Executed()
		results = po.Run(trace)
		t.events = c.Eng.Executed() - ev0
	})
	t.wall = time.Since(start) - t.occupancy
	if obs != nil {
		t.ticks, t.sinkTime = obs.ticks, obs.sinkTime
		if obs.timedOut {
			return t, fmt.Errorf("traced session interrupted after %v", sessionDeadline)
		}
	}
	t.fingerprint = fmt.Sprintf("%016x", results.Fingerprint())
	t.completed = results.Completed
	t.warm = results.WarmStarts
	t.coldForks = results.ColdForks
	t.scratch = results.ScratchCold
	t.failedRests = results.FailedRestores
	t.evictions = results.EvictedCkpts
	return t, nil
}

// installSink installs the telemetry sink RunWorkload installs for a
// served session: one Tick per sample carrying every series' last value
// and the SLO alerts since the previous tick, handed to obs.
func installSink(c *cluster.Cluster, po *porter.Porter, obs *observer) {
	var seq int64
	var alertsSeen int
	c.Telem.SetSink(func(now des.Time) {
		seq++
		tick := cxlfork.Tick{Now: time.Duration(now), Seq: seq}
		for _, s := range c.Telem.Series() {
			if sm, ok := s.Last(); ok {
				tick.Points = append(tick.Points, cxlfork.SamplePoint{
					Series: s.Key(), Kind: s.Kind().String(), Value: sm.V,
				})
			}
		}
		alerts := po.SLOAlerts()
		for ; alertsSeen < len(alerts); alertsSeen++ {
			a := alerts[alertsSeen]
			tick.Alerts = append(tick.Alerts, cxlfork.AlertEvent{
				At: time.Duration(a.At), Objective: a.Objective, Firing: a.Firing, Short: a.Short, Long: a.Long,
			})
		}
		obs.onSample(tick)
		if obs.interrupt() {
			c.Eng.Stop()
		}
	})
}

// tracedRun is the per-layer run: one unit through RunWorkload, the
// same unit phase by phase, the unit through RunWorkload again, then
// the probe legs on the workload's inputs. The untraced passes bracket
// the traced one, so the first pass's cold heap does not count as
// tracing overhead.
func tracedRun(w workload, ledger *ledger, t *tally) map[string]metric {
	untraced, before := untracedUnit(w, ledger, t)
	var tracedWalls []float64
	var sessions []traced
	for i, s := range w.unit {
		tr, err := tracedSession(s, w.served)
		if err == nil && tr.completed != tr.arrivals {
			err = fmt.Errorf("completed %d of %d generated arrivals", tr.completed, tr.arrivals)
		}
		if err == nil && untraced[i].report != nil && tr.fingerprint != untraced[i].report.Fingerprint {
			err = fmt.Errorf("traced fingerprint %s, untraced %s", tr.fingerprint, untraced[i].report.Fingerprint)
		}
		if err == nil {
			err = ledger.agree(s, &cxlfork.RunReport{Fingerprint: tr.fingerprint, Completed: tr.completed}, "traced")
		}
		if !t.check(fmt.Sprintf("%s %s traced session", w.name, s.wl.Design), err) {
			continue
		}
		fmt.Printf("%s traced %-11s wall=%.3fs calibrate=%.3fs build=%.3fs provision=%.3fs generate=%.3fs replay=%.3fs coverage=%.4f fp=%s\n",
			w.name, s.wl.Design, tr.wall.Seconds(), tr.calibrate.wall.Seconds(), tr.build.wall.Seconds(),
			tr.provision.wall.Seconds(), tr.generate.wall.Seconds(), tr.replay.wall.Seconds(), tr.coverage(), tr.fingerprint)
		sessions = append(sessions, tr)
		tracedWalls = append(tracedWalls, tr.wall.Seconds())
	}

	_, after := untracedUnit(w, ledger, t)

	m := phaseMetrics(sessions)
	untracedMean := (before + after) / 2
	m["bench.untraced_session_s"] = metric{untracedMean, "s"}
	m["bench.traced_session_s"] = metric{mean(tracedWalls), "s"}
	m["bench.trace_overhead_s"] = metric{mean(tracedWalls) - untracedMean, "s"}
	for k, v := range probeLegs(w, sessions, t) {
		m[k] = v
	}
	printHost()
	if w.name == "replay-batch" {
		fmt.Printf("known regression: porter.replay_allocs_per_event %.4f, BENCH_0007.json azure allocs_per_event %.4f\n",
			m["porter.replay_allocs_per_event"].Value, bench0007AllocsPerEvent)
	}
	return m
}

// untracedUnit runs one unit through RunWorkload and returns its
// outcomes and mean session wall time (NaN if any session failed).
func untracedUnit(w workload, ledger *ledger, t *tally) ([]outcome, float64) {
	outs := make([]outcome, len(w.unit))
	var walls []float64
	for i, s := range w.unit {
		outs[i] = runSession(s, w.served, false)
		logSession(w.name+" untraced", s, outs[i])
		if t.check(fmt.Sprintf("%s %s untraced session", w.name, s.wl.Design), verify(w, s, outs[i], ledger, "untraced")) {
			walls = append(walls, outs[i].wall.Seconds())
		}
	}
	if len(walls) < len(w.unit) {
		return outs, math.NaN()
	}
	return outs, mean(walls)
}

// bench0007AllocsPerEvent is the Azure replay allocation rate committed
// in BENCH_0007.json. The traced replay-batch run prints its own rate
// beside it; the difference is a known regression, recorded here and
// gated only by cxlbench -check.
const bench0007AllocsPerEvent = 3.7733483348087633

// phaseMetrics aggregates the traced sessions' spans: times and sizes
// are per-session means, counts are totals, ratios are over totals.
func phaseMetrics(ts []traced) map[string]metric {
	n := float64(len(ts))
	var calS, calMB, buildS, buildMB, provS, genS, repS, repMB, gcS, sinkS, occUS float64
	var mallocs, events, gcCycles uint64
	var ticks, evictions int64
	var completed, warm, cold, scratch, failed int
	cov := 1.0
	for _, t := range ts {
		calS += t.calibrate.wall.Seconds()
		calMB += mb(t.calibrate.bytes)
		buildS += t.build.wall.Seconds()
		buildMB += mb(t.build.bytes)
		provS += t.provision.wall.Seconds()
		genS += t.generate.wall.Seconds()
		repS += t.replay.wall.Seconds()
		repMB += mb(t.replay.bytes)
		gcS += t.replay.gcCPU
		gcCycles += t.replay.gcCycles
		sinkS += t.sinkTime.Seconds()
		occUS += float64(t.occupancy.Nanoseconds()) / 1e3
		mallocs += t.replay.mallocs
		events += t.events
		ticks += t.ticks
		completed += t.completed
		warm += t.warm
		cold += t.coldForks
		scratch += t.scratch
		failed += t.failedRests
		evictions += t.evictions
		cov = min(cov, t.coverage())
	}
	if n == 0 {
		n = 1
	}
	return map[string]metric{
		"experiments.calibrate_s":        {calS / n, "s"},
		"experiments.calibrate_alloc_mb": {calMB / n, "MB"},
		"cluster.build_s":                {buildS / n, "s"},
		"cluster.build_heap_mb":          {buildMB / n, "MB"},
		"porter.provision_s":             {provS / n, "s"},
		"azure.generate_s":               {genS / n, "s"},
		"porter.replay_s":                {repS / n, "s"},
		"porter.replay_alloc_mb":         {repMB / n, "MB"},
		"porter.replay_allocs_per_event": {ratio(float64(mallocs), float64(events)), "allocs/event"},
		"des.events":                     {float64(events), "count"},
		"des.replay_ns_per_event":        {ratio(repS*1e9, float64(events)), "ns"},
		"runtime.gc_cpu_s":               {gcS / n, "s"},
		"runtime.gc_cycles":              {float64(gcCycles), "count"},
		"telemetry.ticks":                {float64(ticks), "count"},
		"telemetry.sink_s":               {sinkS / n, "s"},
		"cxl.occupancy_us":               {occUS / n, "us"},
		"porter.completed":               {float64(completed), "count"},
		"porter.warm_starts":             {float64(warm), "count"},
		"porter.cold_forks":              {float64(cold), "count"},
		"porter.scratch_cold":            {float64(scratch), "count"},
		"porter.failed_restores":         {float64(failed), "count"},
		"porter.evictions":               {float64(evictions), "count"},
		"porter.warm_frac":               {ratio(float64(warm), float64(completed)), "fraction"},
		"bench.phase_coverage":           {cov, "fraction"},
	}
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printHost records the measuring host in the run's output.
func printHost() {
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
