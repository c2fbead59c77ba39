package porter

import (
	"errors"
	"slices"

	"cxlfork/internal/azure"
	"cxlfork/internal/des"
	"cxlfork/internal/faultinject"
	"cxlfork/internal/metrics"
	"cxlfork/internal/replica"
	"cxlfork/internal/rfork"
	"cxlfork/internal/trace"
	"cxlfork/internal/xray"
)

// Run replays an arrival trace and returns latency and utilization
// results. Event handlers never advance the clock directly; all costs
// are expressed as scheduled durations, so concurrent requests overlap
// correctly on the engine.
func (p *Porter) Run(trace []azure.Request) Results {
	eng := p.c.Eng
	p.res = Results{
		Overall:        metrics.NewLatencyRecorder(),
		PerFunction:    make(map[string]*metrics.LatencyRecorder),
		MemGauge:       make(map[string]*metrics.Gauge),
		ColdLatency:    metrics.NewLatencyRecorder(),
		RestoreLatency: metrics.NewLatencyRecorder(),
	}
	for fn := range p.fns {
		p.res.PerFunction[fn] = metrics.NewLatencyRecorder()
	}
	for _, n := range p.nodes {
		p.res.MemGauge[n.os.Name] = &metrics.Gauge{}
	}
	base := eng.Now()
	p.base = base
	p.lastDone = base
	var last des.Time
	sorted := true
	for i, r := range trace {
		if r.At > last {
			last = r.At
		}
		if i > 0 && r.At < trace[i-1].At {
			sorted = false
		}
	}
	p.window = last
	// Arrivals stream into the engine lazily instead of sitting in its
	// heap as a million closures. A stream must be sorted, and it ranks
	// arrival i as the i-th of len(trace) up-front schedules, so an
	// unsorted trace is replayed from a stable-sorted copy: equal
	// timestamps keep trace order, which is exactly the (at, index)
	// order scheduling every arrival with At produced.
	if !sorted {
		trace = slices.Clone(trace)
		azure.SortByArrival(trace)
	}
	eng.Stream(len(trace),
		func(i int) des.Time { return base + trace[i].At },
		func(i int) { p.arrive(trace[i].Function) })

	// Periodic A-bit reset on CXL checkpoints to re-estimate hot pages
	// (§4.3, §5). Only checkpoints that expose the interface (CXLfork's)
	// participate.
	type aBitResetter interface{ ClearABits() int }
	var resetTick func()
	resetTick = func() {
		if eng.Now() >= base+last {
			return
		}
		for _, st := range p.fns {
			if img, ok := p.store.Get(p.cfg.User, st.spec.Name); ok {
				if ck, ok := img.(aBitResetter); ok {
					ck.ClearABits()
				}
			}
		}
		eng.After(p.c.P.ABitResetPeriod, resetTick)
	}
	if p.cfg.DynamicTiering {
		eng.After(p.c.P.ABitResetPeriod, resetTick)
	}

	p.armPeriodic(base + last)

	p.observeMem()
	eng.Run()
	p.res.Duration = p.lastDone - base
	if p.telem != nil {
		// Final sample so the exports include end-of-run state.
		p.sampleTelemetry(eng.Now())
	}

	p.mirrorCounters()

	// Presort the latency recorders on the worker pool before the
	// caller's summary pass reads percentiles. Each recorder sorts its
	// own buffer, sorting is order-insensitive, and the replay itself
	// is already over — so SimWorkers > 1 cannot change any result,
	// only the wall-clock cost of the O(n log n) at scale (a
	// million-request trace sorts ~1M samples here).
	recs := []*metrics.LatencyRecorder{p.res.Overall, p.res.ColdLatency, p.res.RestoreLatency}
	for _, r := range p.res.PerFunction {
		recs = append(recs, r)
	}
	p.c.Sim.Each(len(recs), func(i int) { recs[i].Presort() })
	return p.res
}

// armPeriodic schedules the replay's background work up to the end of
// the arrival window: the fault plan's device losses, anti-entropy
// repair, capacity reclaim and telemetry sampling.
func (p *Porter) armPeriodic(end des.Time) {
	// Arm the plan's device-loss schedule: a firing rule permanently
	// fails the pool device and prunes its replicas, opening the repair
	// window.
	p.c.Faults.ArmDeviceLoss(func(dev int) {
		p.c.Pool.Fail(dev)
		if p.rep != nil {
			p.rep.OnDeviceLoss(dev)
		}
	})

	// Anti-entropy repair: every RepairPeriod, copy up to the bandwidth
	// budget of pages toward restoring full replication (DESIGN.md §12).
	if p.rep != nil && p.c.P.RepairPeriod > 0 {
		p.c.Eng.Every(p.c.P.RepairPeriod, func() bool {
			if p.c.Eng.Now() >= end {
				return false
			}
			p.rep.RepairTick()
			return true
		})
	}

	// Background capacity reclaim: re-check the device watermarks every
	// CXLReclaimPeriod for the duration of the arrival window, so
	// occupancy growth between arrivals (re-checkpoints, dedup decay)
	// is bounded even during arrival lulls.
	if period := p.c.P.CXLReclaimPeriod; period > 0 {
		p.c.Eng.Every(period, func() bool {
			if p.c.Eng.Now() >= end {
				return false
			}
			p.maybeReclaim()
			return true
		})
	}

	// Telemetry sampling: probe every registered series on the virtual
	// clock for the duration of the arrival window, then evaluate SLO
	// burn rates (DESIGN.md §11). Probes are read-only, so the tick's
	// only effect on the event heap is its own presence — results are
	// identical with sampling on or off.
	if p.telem != nil {
		p.sampleTelemetry(p.c.Eng.Now())
		if every := p.telem.SampleEvery(); every > 0 {
			p.c.Eng.Every(every, func() bool {
				if p.c.Eng.Now() >= end {
					return false
				}
				p.sampleTelemetry(p.c.Eng.Now())
				return true
			})
		}
	}
}

// mirrorCounters copies the run's fault, replication, dedup, capacity,
// fabric and observability counters into the results.
func (p *Porter) mirrorCounters() {
	// Availability accounting: mirror the cluster plan's fault counters
	// (which cover Setup as well as the trace) into the results.
	fc := &p.c.Faults.Counters
	p.res.InjectedFaults = fc.Injected.Value()
	p.res.Retries = fc.Retries.Value()
	p.res.Fallbacks = fc.Fallbacks.Value()
	p.res.RecoveredBytes = fc.RecoveredBytes.Value()
	p.res.RetryExhausted = fc.RetryExhausted.Value()

	// Replication accounting: mirror the replica manager's counters and
	// the repair loop's convergence into the results.
	if p.rep != nil {
		rc := &p.rep.C
		p.res.ReplicasPlaced = rc.Placed.Value()
		p.res.ReplicasShed = rc.Shed.Value()
		p.res.RepairCopies = rc.RepairCopies.Value()
		p.res.RepairedPages = rc.RepairedPages.Value()
		p.res.LostImages = rc.LostImages.Value()
		p.res.Failovers = rc.Failovers.Value()
		p.res.UnderReplicated = int64(p.rep.UnderReplication())
		if d, ok := p.rep.ConvergenceTime(); ok {
			p.res.RepairConverged = d
			p.res.RepairConvergedOK = true
		}
	}

	// Dedup accounting: mirror every pool device's content-addressed
	// frame cache counters (covering Setup checkpoints, replica
	// placement, and any trace-time re-checkpoints) into the results.
	for i := 0; i < p.c.Pool.N(); i++ {
		dc := &p.c.Pool.Device(i).Dedup
		p.res.DedupHits += dc.Hits.Value()
		p.res.DedupMisses += dc.Misses.Value()
		p.res.DedupBytesSaved += dc.BytesSaved.Value()
	}

	// Capacity accounting: mirror the eviction engine's counters (which
	// cover Setup admission as well as the trace) into the results.
	cc := &p.capc
	p.res.ReclaimPasses = cc.ReclaimPasses.Value()
	p.res.EvictedCkpts = cc.Evictions.Value()
	p.res.EvictedBytes = cc.EvictedBytes.Value()
	p.res.DeferredBytes = cc.DeferredBytes.Value()
	p.res.CkptRefused = cc.AdmitRefused.Value()
	p.res.Recheckpoints = cc.Recheckpoints.Value()

	// Fabric accounting: mirror the topology contention model's
	// counters (all zero on flat or trivial topologies).
	if p.fabNet != nil {
		p.res.FabricTransfers = p.fabNet.Transfers()
		p.res.FabricQueued = p.fabNet.Queued()
		p.res.FabricQueueDelay = p.fabNet.QueueDelay()
		p.res.FabricExtraDelay = p.fabNet.Charged()
	}

	// Observability accounting: surface tracer and telemetry data loss
	// plus SLO activity in the results so run summaries can print them.
	// None of these fields participate in Fingerprint().
	p.res.TraceDropped = p.c.Trace.Dropped()
	p.res.TelemetrySamples = p.telem.Ticks()
	p.res.TelemetryDropped = p.telem.Dropped()
	p.res.SLOAlertsFired = p.slo.Fired()
}

// arrive handles one request arrival.
func (p *Porter) arrive(fn string) {
	p.maybeReclaim()
	if st := p.fns[fn]; st != nil {
		st.demand++
	}
	req := &pending{fn: fn, arrived: p.c.Eng.Now()}
	if inst := p.findIdle(fn); inst != nil {
		p.serve(inst, req)
		return
	}
	if p.trySpawn(fn, req) {
		return
	}
	p.fns[fn].queue = append(p.fns[fn].queue, req)
}

// findIdle pops the most recently idled instance of fn (warmest caches).
func (p *Porter) findIdle(fn string) *instance {
	var best *nodeState
	var bestSince des.Time
	for _, n := range p.nodes {
		list := n.idle[fn]
		if len(list) == 0 {
			continue
		}
		if since := list[len(list)-1].idleSince; best == nil || since > bestSince {
			best, bestSince = n, since
		}
	}
	if best == nil {
		return nil
	}
	list := best.idle[fn]
	in := list[len(list)-1]
	list[len(list)-1] = nil
	best.idle[fn] = list[:len(list)-1]
	p.cancelExpire(in)
	return in
}

// removeIdle takes in off its node's idle list and cancels its
// keep-alive expiry.
func (p *Porter) removeIdle(in *instance) {
	list := in.node.idle[in.fn]
	if i := slices.Index(list, in); i >= 0 {
		in.node.idle[in.fn] = slices.Delete(list, i, i+1)
	}
	p.cancelExpire(in)
}

func (p *Porter) cancelExpire(in *instance) {
	if in.hasExpire {
		p.c.Eng.Cancel(in.expire)
		in.hasExpire = false
	}
}

// Request classes: how a request was served, naming both its trace
// span and its attribution class.
const (
	classWarm    = "warm-start"
	classFork    = "fork-restore"
	classScratch = "scratch-cold"
)

// serve runs one warm invocation of req on inst.
func (p *Porter) serve(inst *instance, req *pending) {
	inst.state = instBusy
	prof := p.profile(inst.fn, inst.policy)
	inst.led = xray.Ledger{
		xray.PorterQueue: p.c.Eng.Now() - req.arrived,
		xray.Exec:        p.jitter(prof.WarmExec),
	}
	inst.dev = -1
	p.res.WarmStarts++
	p.runOnCore(inst, req, classWarm, nil)
}

// runOnCore holds a core of inst's node for the service time of the
// request's ledger, then closes req: it emits the span, feeds the
// attributor, unpins img (the restored checkpoint, or nil) and
// completes the request.
func (p *Porter) runOnCore(inst *instance, req *pending, class string, img rfork.Image) {
	inst.node.cpu.Exec(inst.led.Service(), func(end des.Time) {
		p.observe(inst, req, class, end)
		if img != nil {
			img.Release()
		}
		inst.warmRuns++
		p.complete(inst, req, end)
	})
}

// observe emits the span of inst's request, whose service ended at
// end, and feeds its closed ledger to the attributor.
func (p *Porter) observe(inst *instance, req *pending, class string, end des.Time) {
	led := &inst.led
	svc, pages := led.Service(), inst.pages
	if class == classWarm {
		pages = 0
	}
	span := p.c.Trace.EmitFlow(inst.node.os.Index, trace.CatPorter, class, end-svc, svc, 0, pages)
	if !p.c.XRay.Enabled() {
		return
	}
	led.Close(req.arrived, end)
	// Restore blame accrued toward a request that degraded to a scratch
	// cold start never reaches the restore-latency recorder: account it
	// as unattributed instead of losing it.
	var unattr des.Time
	if class != classFork {
		unattr = led[xray.Probe] + led[xray.Backoff]
	}
	p.comps = led.Components(p.comps[:0])
	p.c.XRay.Observe(xray.Request{
		Class:          class,
		Name:           inst.fn,
		Span:           int(span),
		Arrived:        int64(req.arrived),
		Latency:        int64(led.Sum()),
		Device:         inst.dev,
		Components:     p.comps,
		UnattributedNS: int64(unattr),
	})
}

// spawn is one spawn's working state, threaded through the stages of
// trySpawn. It stays on trySpawn's stack; bringUp copies the ledger and
// the restore device onto the new instance.
type spawn struct {
	fn string
	// img is the checkpoint to restore; nil for a scratch cold start.
	img rfork.Image
	// excluded holds restore targets found down. It is allocated on the
	// first ErrNodeDown; reading a nil map is safe.
	excluded map[*nodeState]bool
	// attempts counts retries against the per-request budget, shared by
	// replica failovers and node-down retries.
	attempts   int
	pol        rfork.Policy
	prof       Profile
	pages      int
	remoteCopy des.Time
	node       *nodeState
	useGhost   bool
	// dev is the pool device the restore reads over the fabric, or -1.
	dev int
	led xray.Ledger
}

// trySpawn starts a new instance of fn to serve req. It returns false
// when neither memory nor checkpoints allow it right now. Injected
// restore faults degrade gracefully: a crashed target node is excluded
// and the restore retried elsewhere; a transient device-full falls back
// to a scratch cold start.
func (p *Porter) trySpawn(fn string, req *pending) bool {
	s := spawn{fn: fn, dev: -1}
	s.led[xray.PorterQueue] = p.c.Eng.Now() - req.arrived
	p.chooseSource(&s)
	if !p.place(&s) {
		return false
	}
	p.priceFabric(&s)
	inst := p.bringUp(&s, req)
	p.launch(&s, inst, req)
	return true
}

// exhausted reports whether s has spent its retry budget, counting
// retry_exhausted when it has. An exhausted request degrades to a
// scratch cold start rather than counting as a generic fallback.
func (p *Porter) exhausted(s *spawn) bool {
	if budget := p.c.P.RestoreRetryBudget; budget > 0 && s.attempts >= budget {
		p.c.Faults.Counters.RetryExhausted.Inc()
		return true
	}
	return false
}

// chooseSource looks up fn's checkpoint and walks its replica
// preference list. A dead device ahead of the first healthy replica
// costs a probe timeout plus one backed-off retry, charged to the
// spawn in virtual time. An image with no healthy replica left is
// lost: drop it (and its snapshot: the data is gone, re-publication
// cannot resurrect it) and serve the request from scratch.
func (p *Porter) chooseSource(s *spawn) {
	img, ok := p.store.Get(p.cfg.User, s.fn)
	if !ok {
		return
	}
	s.img = img
	rimg, ok := img.(*replica.Image)
	if p.rep == nil || !ok {
		return
	}
	healthy, deadAhead := p.rep.Probe(rimg.Key())
	switch {
	case healthy == 0:
		p.res.FailedRestores++
		p.store.Reclaim(p.cfg.User, s.fn)
		delete(p.snaps, s.fn)
		s.img = nil
	case deadAhead > 0:
		for i := 0; i < deadAhead; i++ {
			if p.exhausted(s) {
				s.img = nil
				return
			}
			s.led[xray.Probe] += p.c.P.ReplicaFailoverTimeout
			s.led[xray.Backoff] += p.backoff(s.attempts)
			s.attempts++
			p.c.Faults.Counters.Retries.Inc()
		}
		p.rep.C.Failovers.Inc()
	}
}

// place prices the spawn from its profile and picks a node for it. A
// restore whose target node is down retries on another node after a
// backoff, within the retry budget; a transient device-full (or other
// image trouble) degrades the spawn to a scratch cold start, which
// needs no device capacity. It reports false when no node can host
// the spawn.
func (p *Porter) place(s *spawn) bool {
	s.pol = p.fns[s.fn].policy
	var core des.Time
	for {
		if s.img != nil {
			s.prof = p.profile(s.fn, s.pol)
			s.pages = s.prof.LocalPages
			s.remoteCopy = p.jitter(s.prof.RemoteCopy)
			core = p.jitter(s.prof.Restore + s.prof.ColdExec - s.prof.RemoteCopy)
		} else {
			s.prof = p.profile(s.fn, rfork.MigrateOnWrite)
			s.pages = s.prof.FootprintPages
			s.remoteCopy = 0
			core = p.jitter(s.prof.ColdInit + s.prof.ColdInitExec)
		}
		s.node, s.useGhost = p.placeOn(s.fn, s.pages, s.excluded)
		if s.node == nil {
			return false
		}
		if s.img == nil {
			break
		}
		err := p.c.Faults.At(faultinject.StepPorterRestore, s.node.os.Index)
		if err == nil {
			break
		}
		if !errors.Is(err, rfork.ErrNodeDown) {
			s.img = nil
			p.c.Faults.Counters.Fallbacks.Inc()
			continue
		}
		if s.excluded == nil {
			s.excluded = make(map[*nodeState]bool)
		}
		s.excluded[s.node] = true
		p.c.Faults.Counters.Retries.Inc()
		if p.exhausted(s) {
			s.img = nil
			continue
		}
		s.led[xray.Backoff] += p.backoff(s.attempts)
		s.attempts++
	}
	// Blame split of the jittered service core: the restore (or
	// cold-init) share versus execution, proportional to the profile's
	// unjittered parts with the integer remainder charged to exec, so
	// the service slots sum to the CPU charge exactly.
	slot, share, denom := xray.Restore, s.prof.Restore, s.prof.Restore+s.prof.ColdExec-s.prof.RemoteCopy
	if s.img == nil {
		slot, share, denom = xray.ColdInit, s.prof.ColdInit, s.prof.ColdInit+s.prof.ColdInitExec
	}
	if denom > 0 {
		s.led[slot] = des.Time(int64(core) * int64(share) / int64(denom))
	}
	s.led[xray.Exec] = core - s.led[slot]
	return true
}

// priceFabric charges a restore's path latency and per-link stream
// contention from the nearest healthy replica to the chosen node
// (DESIGN.md §14), then records the restore latency. The stream is
// sized by the image's full footprint — a cold fork's remote traffic
// is the whole resident image, read over the fabric across restore and
// first execution — so a restore storm against one device genuinely
// saturates that device's link. Only non-trivial topologies carry a
// Net, and only the differential over the flat single-hop baseline is
// charged, so the flat model stays byte-identical.
func (p *Porter) priceFabric(s *spawn) {
	if s.img == nil {
		return
	}
	if p.fabNet != nil {
		host := p.c.HostOf(s.node.os.Index)
		s.dev = 0
		if p.rep != nil {
			if rimg, ok := s.img.(*replica.Image); ok {
				if d := p.rep.NearestHealthy(rimg.Key(), host); d >= 0 {
					s.dev = d
				}
			}
		}
		s.led[xray.Fabric] = p.fabNet.Restore(host, s.dev, s.prof.FootprintPages, p.c.Eng.Now())
	}
	// The restore tail is the profile's unjittered restore plus what
	// failover and placement add to it (DESIGN.md §16, Ledger).
	if p.res.RestoreLatency != nil {
		p.res.RestoreLatency.Record(s.prof.Restore + s.led[xray.Probe] + s.led[xray.Backoff] + s.led[xray.Fabric])
	}
}

// bringUp provisions the spawn's container, a ghost's trigger or a
// fresh container, charges its pages to the node and returns the new
// instance. A restore pins its image until the instance finishes:
// eviction may drop it from the store meanwhile, but its frames must
// outlive every in-flight restore (the eviction-safety invariant).
func (p *Porter) bringUp(s *spawn, req *pending) *instance {
	node, pages, ownsCtr := s.node, s.pages, false
	if s.useGhost && s.img != nil {
		node.ghosts[s.fn]--
		s.led[xray.Container] = p.c.P.GhostContainerTrigger
		p.replenishGhosts(node, s.fn)
	} else {
		// Fresh container: creation cost plus its fixed overhead.
		s.led[xray.Container] = p.c.P.ContainerCreate
		pages += p.ghostPages
		ownsCtr = true
	}
	node.usedPages += pages
	p.observeMem()

	inst := &instance{fn: s.fn, node: node, policy: s.pol, pages: pages, ownsCtr: ownsCtr,
		state: instSpawning, led: s.led, dev: s.dev}
	node.all[inst] = true
	req.cold = true
	if s.img == nil {
		p.res.ScratchCold++
		return inst
	}
	p.res.ColdForks++
	s.img.Retain()
	p.store.Touch(p.cfg.User, s.fn, p.c.Eng.Now())
	if st := p.fns[s.fn]; st != nil {
		st.scoreBase = p.agingL
	}
	return inst
}

// launch runs the spawned instance: a Mitosis spawn first pulls its
// pages through the parent node's uplink, then every spawn runs the
// rest of its cold start on a local core.
func (p *Porter) launch(s *spawn, inst *instance, req *pending) {
	class, img := classScratch, s.img
	if img != nil {
		class = classFork
	}
	if s.remoteCopy <= 0 {
		p.runOnCore(inst, req, class, img)
		return
	}
	upStart := p.c.Eng.Now()
	p.parentUplink.Exec(s.remoteCopy, func(upEnd des.Time) {
		inst.led[xray.Uplink] = upEnd - upStart
		p.runOnCore(inst, req, class, img)
	})
}

// replenishGhosts provisions a fresh ghost container in the background
// (off the request critical path) to keep the per-function pool at its
// configured size (§5 maintains "a few configured but empty containers
// per function").
func (p *Porter) replenishGhosts(node *nodeState, fn string) {
	if node.ghosts[fn] >= p.cfg.GhostsPerFunction {
		return
	}
	if node.freePages() < p.ghostPages {
		// The consuming node is full: fall back to the least-loaded
		// surviving node with room, preferring one that already hosts fn
		// (a dedup-warm placement — see placeOn).
		node = p.ghostFallback(fn)
		if node == nil {
			return
		}
	}
	p.c.Eng.After(p.c.P.ContainerCreate, func() {
		if node.ghosts[fn] >= p.cfg.GhostsPerFunction || node.freePages() < p.ghostPages {
			return
		}
		node.ghosts[fn]++
		node.usedPages += p.ghostPages
		p.observeMem()
		p.pump()
	})
}

// placeOn picks a node with a free ghost (preferred) and enough memory,
// evicting idle instances if necessary. Crashed nodes and nodes in
// excluded are never candidates. It returns (nil, false) when no node
// can host the instance.
func (p *Porter) placeOn(fn string, pages int, excluded map[*nodeState]bool) (*nodeState, bool) {
	// Prefer nodes with a ghost for fn and room, least loaded first.
	cands := p.cands[:0]
	for _, n := range p.nodes {
		if excluded[n] || p.c.Faults.NodeDown(n.os.Index) {
			continue
		}
		cands = append(cands, n)
	}
	p.cands = cands
	sortByLoad(cands, fn)
	if p.ghostsCompatible() {
		for _, n := range cands {
			if n.ghosts[fn] > 0 && n.freePages() >= pages {
				return n, true
			}
		}
	}
	for _, n := range cands {
		if n.freePages() >= pages {
			return n, false
		}
	}
	// Evict idle instances to make room (fastest reclaim path; the
	// keep-alive shortening handles the steady state, §5).
	for _, n := range cands {
		if p.evictFor(n, pages) {
			return n, p.ghostsCompatible() && n.ghosts[fn] > 0
		}
	}
	return nil, false
}

// evictFor evicts the oldest idle instances on n until pages fit.
func (p *Porter) evictFor(n *nodeState, pages int) bool {
	for n.freePages() < pages {
		victim := p.oldestIdle(n)
		if victim == nil {
			return false
		}
		p.destroy(victim)
		p.res.Evictions++
	}
	return true
}

// oldestIdle returns n's longest-idle instance. Functions are visited
// in spec order, so equal idleSince ties resolve the same way on every
// run.
func (p *Porter) oldestIdle(n *nodeState) *instance {
	var oldest *instance
	for _, st := range p.order {
		for _, in := range n.idle[st.spec.Name] {
			if oldest == nil || in.idleSince < oldest.idleSince {
				oldest = in
			}
		}
	}
	return oldest
}

// destroy tears an idle instance down, returning its sandbox to the
// ghost pool (the container overhead stays allocated).
func (p *Porter) destroy(in *instance) {
	p.removeIdle(in)
	in.state = instDead
	delete(in.node.all, in)
	release := in.pages
	if p.ghostsCompatible() {
		if in.ownsCtr {
			// The sandbox overhead stays allocated and joins the pool.
			release -= p.ghostPages
		}
		in.node.ghosts[in.fn]++
	}
	// CRIU-CXL containers are torn down entirely (in.pages includes the
	// overhead for every CRIU spawn, since ownsCtr is always true).
	in.node.usedPages -= release
	p.observeMem()
}

// complete finishes a request on inst.
func (p *Porter) complete(inst *instance, req *pending, end des.Time) {
	lat := end - req.arrived
	p.res.Overall.Record(lat)
	p.res.PerFunction[inst.fn].Record(lat)
	if req.cold && p.res.ColdLatency != nil {
		p.res.ColdLatency.Record(lat)
	}
	p.res.Completed++
	if end > p.lastDone {
		p.lastDone = end
	}
	if p.window > 0 && end <= p.base+p.window {
		p.res.WindowCompleted++
	}

	st := p.fns[inst.fn]
	if st.slo > 0 {
		ratio := float64(lat) / float64(st.slo)
		st.lateEWM = 0.7*st.lateEWM + 0.3*ratio
		p.maybePromote(st)
	}
	p.maybeRecheckpoint(inst)

	// Fast path: keep serving this function's queue with the instance.
	if len(st.queue) > 0 {
		p.serve(inst, st.popQueue())
		return
	}

	inst.state = instIdle
	inst.idleSince = end
	inst.node.idle[inst.fn] = append(inst.node.idle[inst.fn], inst)
	window := p.c.P.KeepAlive
	if p.memPressure() {
		window = p.c.P.KeepAliveShort
	}
	inst.expire = p.c.Eng.After(window, func() {
		if inst.state == instIdle {
			p.destroy(inst)
			p.pump()
		}
	})
	inst.hasExpire = true

	p.pump()
}

// maybePromote switches a function from migrate-on-write to hybrid
// tiering when its latency EWMA exceeds the SLO — unless local memory
// utilization is above the HighMem threshold (§5).
func (p *Porter) maybePromote(st *fnState) {
	if !p.cfg.DynamicTiering || p.cfg.StaticPolicy != nil {
		return
	}
	if st.policy != rfork.MigrateOnWrite || st.lateEWM <= 1 {
		return
	}
	if p.memPressure() {
		return
	}
	st.policy = rfork.HybridTiering
	p.res.PolicyPromotions++
	// Running and idle instances adopt the new policy too: the porter
	// migrates their hot checkpointed pages to local memory over the
	// following invocations (modelled as an immediate profile switch;
	// the transition cost is a few MoA faults per instance).
	for _, n := range p.nodes {
		for in := range n.all {
			if in.fn == st.spec.Name {
				in.policy = rfork.HybridTiering
			}
		}
	}
}

// memPressure reports whether mean node utilization exceeds HighMem.
func (p *Porter) memPressure() bool {
	var u float64
	for _, n := range p.nodes {
		u += n.utilization()
	}
	return u/float64(len(p.nodes)) >= p.c.P.HighMemFraction
}

// pump retries queued requests, oldest first, after capacity frees up.
// Functions are visited in spec order, so equal arrival times resolve
// the same way on every run.
func (p *Porter) pump() {
	for {
		var st *fnState
		for _, s := range p.order {
			if len(s.queue) == 0 {
				continue
			}
			if st == nil || s.queue[0].arrived < st.queue[0].arrived {
				st = s
			}
		}
		if st == nil {
			return
		}
		req := st.queue[0]
		if inst := p.findIdle(req.fn); inst != nil {
			st.popQueue()
			p.serve(inst, req)
			continue
		}
		if p.trySpawn(req.fn, req) {
			st.popQueue()
			continue
		}
		return
	}
}

// observeMem samples node memory utilization into the gauges.
func (p *Porter) observeMem() {
	if p.res.MemGauge == nil {
		return
	}
	for _, n := range p.nodes {
		if g, ok := p.res.MemGauge[n.os.Name]; ok {
			g.Observe(p.c.Eng.Now(), n.utilization())
		}
	}
}

// jitter multiplies a duration by U[0.9, 1.1) for realistic spread.
func (p *Porter) jitter(d des.Time) des.Time {
	return des.Time(float64(d) * (0.9 + 0.2*p.rng.Float64()))
}
