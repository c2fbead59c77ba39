package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"cxlfork/internal/cachesim"
	"cxlfork/internal/cluster"
	"cxlfork/internal/core"
	"cxlfork/internal/criu"
	"cxlfork/internal/des"
	"cxlfork/internal/experiments"
	"cxlfork/internal/faas"
	"cxlfork/internal/memsim"
	"cxlfork/internal/metrics"
	"cxlfork/internal/mitosis"
	"cxlfork/internal/rfork"
)

// minProbeEvents floors the DES probe's chain length so a workload with
// few requests still times a steady state.
const minProbeEvents = 1 << 20

// probeLegs times single layers on the workload's own inputs: its node
// DRAM size, its functions, its LLC, its request and completed counts.
// Each leg calls only the layer's public functions.
func probeLegs(w workload, sessions []traced, t *tally) map[string]metric {
	m := map[string]metric{}
	r, err := resolve(w.unit[0], false)
	if !t.check(w.name+" probe inputs", err) {
		return m
	}
	var events, completed int
	for _, s := range sessions {
		events += s.arrivals
		completed = max(completed, s.completed)
	}
	largest := r.specs[0]
	for _, spec := range r.specs {
		if faas.ComputeLayout(r.p, spec).TotalPages() > faas.ComputeLayout(r.p, largest).TotalPages() {
			largest = spec
		}
	}
	largestPages := faas.ComputeLayout(r.p, largest).TotalPages()
	seed := r.trace.Seed

	memsimLeg(r, largestPages, m)
	cachesimLeg(r, largestPages, seed, m)
	t.check(w.name+" mechanism probe", mechanismLeg(r, seed, m))
	desLeg(max(events, minProbeEvents), m)
	metricsLeg(max(completed, 1), seed, m)
	return m
}

// memsimLeg builds a frame pool the size of one node's DRAM (the
// median of three builds) and times frame alloc/put pairs.
func memsimLeg(r resolved, pages int, m map[string]metric) {
	var builds []float64
	var heap float64
	var pool *memsim.Pool
	for i := 0; i < 3; i++ {
		pool = nil
		runtime.GC()
		sp := measure(func() { pool = memsim.NewPool("probe", memsim.Local, r.p.NodeDRAMBytes, r.p.PageSize) })
		builds = append(builds, sp.wall.Seconds())
		heap = mb(sp.bytes)
	}
	frames := make([]*memsim.Frame, pages)
	var pairs int
	start := time.Now()
	for time.Since(start) < 200*time.Millisecond {
		for i := range frames {
			frames[i] = pool.MustAlloc()
		}
		for _, f := range frames {
			pool.Put(f)
		}
		pairs += len(frames)
	}
	m["memsim.pool_build_s"] = metric{median(builds), "s"}
	m["memsim.pool_heap_mb"] = metric{heap, "MB"}
	m["memsim.alloc_put_ns"] = metric{float64(time.Since(start).Nanoseconds()) / float64(pairs), "ns"}
}

// cachesimLeg drives a page LRU of the platform's LLC capacity with
// seeded uniform accesses over the largest function's pages.
func cachesimLeg(r resolved, pages int, seed int64, m map[string]metric) {
	lru := cachesim.NewPageLRU(int(r.p.LLCBytes / int64(r.p.PageSize)))
	rng := rand.New(rand.NewSource(seed))
	keys := make([]cachesim.Line, max(4*pages, 1<<20))
	for i := range keys {
		keys[i] = cachesim.Key(1, uint64(rng.Intn(pages)))
	}
	var hits int
	start := time.Now()
	for _, k := range keys {
		if lru.Access(k) {
			hits++
		}
	}
	wall := time.Since(start)
	m["cachesim.lru_access_ns"] = metric{float64(wall.Nanoseconds()) / float64(len(keys)), "ns"}
	m["cachesim.lru_hit_frac"] = metric{float64(hits) / float64(len(keys)), "fraction"}
}

// mechanismLeg cold-starts every workload function on a two-node
// calibration environment, warms it to its checkpoint point, and then
// checkpoints it and restores one clone with each rfork mechanism.
// Host times are means per function; sim times are virtual.
func mechanismLeg(r resolved, seed int64, m map[string]metric) error {
	c, err := experiments.NewEnv(r.calib, r.specs...)
	if err != nil {
		return err
	}
	type mechCost struct {
		ckpt, restore       time.Duration
		ckptSim, restoreSim des.Time
	}
	mechs := []struct {
		name string
		mech rfork.Mechanism
		cost mechCost
	}{
		{name: "core", mech: core.New(c.Dev)},
		{name: "criu", mech: criu.New(c.CXLFS)},
		{name: "mitosis", mech: mitosis.New()},
	}
	var coldInit, invoke time.Duration
	var faults int64
	var dedup dedupDelta
	rng := rand.New(rand.NewSource(seed))
	src, dst := c.Node(0), c.Node(1)
	for _, spec := range r.specs {
		in, err := faas.NewInstance(src, spec)
		if err != nil {
			return err
		}
		h0 := time.Now()
		if err := in.ColdInit(); err != nil {
			return err
		}
		h1 := time.Now()
		if _, err := in.Invoke(rng); err != nil {
			return err
		}
		coldInit += h1.Sub(h0)
		invoke += time.Since(h1)
		faults += in.Task.MM.Stats.Faults.Total()
		in.Task.MM.PT.ClearABits()
		in.Task.MM.PT.ClearDirtyBits()
		if err := in.Warmup(r.calib.CheckpointAfter-1, rng); err != nil {
			return err
		}

		for i := range mechs {
			mc := &mechs[i]
			v0, h0 := c.Eng.Now(), time.Now()
			img, err := mc.mech.Checkpoint(in.Task, fmt.Sprintf("probe-%s-%s", mc.name, spec.Name))
			if err != nil {
				return fmt.Errorf("%s checkpoint of %s: %w", mc.name, spec.Name, err)
			}
			mc.cost.ckpt += time.Since(h0)
			mc.cost.ckptSim += c.Eng.Now() - v0

			child := dst.NewTask(spec.Name + "-probe-clone")
			v0, h0 = c.Eng.Now(), time.Now()
			if err := mc.mech.Restore(child, img, rfork.Options{}); err != nil {
				return fmt.Errorf("%s restore of %s: %w", mc.name, spec.Name, err)
			}
			mc.cost.restore += time.Since(h0)
			mc.cost.restoreSim += c.Eng.Now() - v0
			dst.Exit(child)
			if mc.name == "core" {
				if err := recheckpoint(c, in, mc.mech, spec.Name, rng, &dedup); err != nil {
					return err
				}
			}
			img.Release()
		}
		in.Exit()
	}

	n := float64(len(r.specs))
	m["faas.cold_init_s"] = metric{coldInit.Seconds() / n, "s"}
	m["faas.invoke_s"] = metric{invoke.Seconds() / n, "s"}
	m["kernel.faults"] = metric{float64(faults), "count"}
	for _, mc := range mechs {
		m[mc.name+".checkpoint_s"] = metric{mc.cost.ckpt.Seconds() / n, "s"}
		m[mc.name+".restore_s"] = metric{mc.cost.restore.Seconds() / n, "s"}
		m[mc.name+".checkpoint_sim_ms"] = metric{mc.cost.ckptSim.Millis() / n, "virtual_ms"}
		m[mc.name+".restore_sim_ms"] = metric{mc.cost.restoreSim.Millis() / n, "virtual_ms"}
	}
	m["cxl.dedup_hits"] = metric{float64(dedup.hits), "count"}
	m["cxl.dedup_misses"] = metric{float64(dedup.misses), "count"}
	return nil
}

// dedupDelta counts the device dedup cache's hits and misses over
// re-checkpoints.
type dedupDelta struct{ hits, misses int64 }

// recheckpoint invokes the parent once more and checkpoints it again
// while its first image is still live, as the porter does when it
// refreshes a function's image: unchanged pages should hit the device's
// content-addressed dedup cache, pages the invocation wrote should miss.
func recheckpoint(c *cluster.Cluster, in *faas.Instance, mech rfork.Mechanism, name string, rng *rand.Rand, d *dedupDelta) error {
	if _, err := in.Invoke(rng); err != nil {
		return err
	}
	h0, m0 := c.Dev.Dedup.Hits.Value(), c.Dev.Dedup.Misses.Value()
	again, err := mech.Checkpoint(in.Task, "probe-recheckpoint-"+name)
	if err != nil {
		return fmt.Errorf("re-checkpoint of %s: %w", name, err)
	}
	d.hits += c.Dev.Dedup.Hits.Value() - h0
	d.misses += c.Dev.Dedup.Misses.Value() - m0
	again.Release()
	return nil
}

// desLeg times a self-rescheduling event chain of n events on a warmed
// engine: dispatch cost and steady-state allocations per event.
func desLeg(n int, m map[string]metric) {
	eng := des.NewEngine()
	chain := func(n int) {
		left := n
		var step func()
		step = func() {
			if left--; left > 0 {
				eng.After(1, step)
			}
		}
		eng.After(1, step)
	}
	chain(1 << 12)
	eng.Run()
	chain(n)
	sp := measure(eng.Run)
	m["des.dispatch_ns"] = metric{float64(sp.wall.Nanoseconds()) / float64(n), "ns"}
	m["des.steady_allocs_per_event"] = metric{float64(sp.mallocs) / float64(n), "allocs/event"}
}

// metricsLeg times one nearest-rank percentile over a recorder holding
// n samples right after a new sample arrives — what every telemetry tick
// pays for the latency history — as the median of five.
func metricsLeg(n int, seed int64, m map[string]metric) {
	rng := rand.New(rand.NewSource(seed))
	rec := metrics.NewLatencyRecorder()
	for i := 0; i < n; i++ {
		rec.Record(des.Time(rng.ExpFloat64() * float64(50*des.Millisecond)))
	}
	rec.Percentile(99)
	var walls []float64
	for i := 0; i < 5; i++ {
		rec.Record(des.Time(rng.ExpFloat64() * float64(50*des.Millisecond)))
		start := time.Now()
		rec.Percentile(99)
		walls = append(walls, float64(time.Since(start).Nanoseconds())/1e6)
	}
	m["metrics.percentile_ms"] = metric{median(walls), "ms"}
}
