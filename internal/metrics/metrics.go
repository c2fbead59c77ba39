package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"cxlfork/internal/des"
)

// LatencyRecorder collects latency samples and reports percentiles.
//
// samples[:nsorted] is kept sorted. Samples recorded since the last
// query form an unsorted tail; the next query sorts only that tail and
// merges it into the prefix, so a recorder polled at every telemetry
// tick pays for the samples added since the previous tick, not for its
// whole history.
type LatencyRecorder struct {
	samples []des.Time
	nsorted int
	scratch []des.Time // merge buffer, reused across queries
	sum     des.Time
}

// NewLatencyRecorder returns an empty recorder.
func NewLatencyRecorder() *LatencyRecorder { return &LatencyRecorder{} }

// Record adds a sample.
func (r *LatencyRecorder) Record(d des.Time) {
	r.samples = append(r.samples, d)
	r.sum += d
}

// Count returns the number of samples.
func (r *LatencyRecorder) Count() int { return len(r.samples) }

// Sum returns the total of all samples.
func (r *LatencyRecorder) Sum() des.Time { return r.sum }

// Mean returns the average latency (0 with no samples).
func (r *LatencyRecorder) Mean() des.Time {
	if len(r.samples) == 0 {
		return 0
	}
	return r.sum / des.Time(len(r.samples))
}

// Percentile returns the p-th percentile (0 < p <= 100) using
// nearest-rank on the sorted samples. It returns 0 with no samples.
func (r *LatencyRecorder) Percentile(p float64) des.Time {
	if len(r.samples) == 0 {
		return 0
	}
	r.Presort()
	if p <= 0 {
		return r.samples[0]
	}
	rank := int(math.Ceil(p / 100 * float64(len(r.samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(r.samples) {
		rank = len(r.samples)
	}
	return r.samples[rank-1]
}

// Quantile returns the p-th percentile (0 <= p <= 100) with linear
// interpolation between adjacent order statistics — the smoother
// estimator telemetry summaries use, where nearest-rank's stair-steps
// would show up as false level shifts. A single-sample distribution
// returns that sample for every p: the naive interpolation index
// p/100*(n-1) degenerates to position 0 of an unguarded formula and
// historically reported 0 for P50.
func (r *LatencyRecorder) Quantile(p float64) des.Time {
	if len(r.samples) == 0 {
		return 0
	}
	r.Presort()
	if len(r.samples) == 1 {
		return r.samples[0]
	}
	if p <= 0 {
		return r.samples[0]
	}
	if p >= 100 {
		return r.samples[len(r.samples)-1]
	}
	pos := p / 100 * float64(len(r.samples)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if frac == 0 {
		return r.samples[lo]
	}
	a, b := float64(r.samples[lo]), float64(r.samples[lo+1])
	return des.Time(math.Round(a + frac*(b-a)))
}

// Presort brings the sample buffer into order ahead of percentile
// queries, so a worker pool can pay for many recorders' sorting in
// parallel before a sequential summary pass reads them; Percentile and
// Quantile call it themselves, and after it they are read-only until
// the next Record.
//
// Only the tail recorded since the buffer was last ordered is sorted.
// It is then merged into the sorted prefix in place, from the back,
// through the reused scratch buffer: walking the tail from its largest
// sample down, each step moves the run of prefix samples above that
// sample to its final place in one copy, so only prefix samples larger
// than the tail's minimum move, each once.
func (r *LatencyRecorder) Presort() {
	n := len(r.samples)
	if r.nsorted == n {
		return
	}
	tail := r.samples[r.nsorted:]
	slices.Sort(tail)
	if r.nsorted > 0 && r.samples[r.nsorted-1] > tail[0] {
		r.scratch = append(r.scratch[:0], tail...)
		i, k := r.nsorted, n
		for j := len(r.scratch) - 1; j >= 0; j-- {
			v := r.scratch[j]
			p, _ := slices.BinarySearch(r.samples[:i], v)
			k -= i - p
			copy(r.samples[k:], r.samples[p:i])
			i = p
			k--
			r.samples[k] = v
		}
	}
	r.nsorted = n
}

// P50 returns the median.
func (r *LatencyRecorder) P50() des.Time { return r.Percentile(50) }

// P99 returns the 99th percentile.
func (r *LatencyRecorder) P99() des.Time { return r.Percentile(99) }

// Max returns the largest sample.
func (r *LatencyRecorder) Max() des.Time { return r.Percentile(100) }

// Reset discards all samples.
func (r *LatencyRecorder) Reset() {
	r.samples = r.samples[:0]
	r.nsorted = 0
	r.sum = 0
}

// PhaseStats aggregates latency distributions keyed by phase name — the
// per-phase histograms the virtual-time tracer folds span durations
// into, so experiments can report a checkpoint's serialize/copy/rebase
// decomposition (paper Fig. 6) instead of only end-to-end totals.
type PhaseStats struct {
	m map[string]*LatencyRecorder
}

// NewPhaseStats returns an empty phase table.
func NewPhaseStats() *PhaseStats {
	return &PhaseStats{m: make(map[string]*LatencyRecorder)}
}

// Record adds one sample to the named phase's distribution.
func (s *PhaseStats) Record(phase string, d des.Time) {
	r, ok := s.m[phase]
	if !ok {
		r = NewLatencyRecorder()
		s.m[phase] = r
	}
	r.Record(d)
}

// Phases returns the recorded phase names, sorted (deterministic
// iteration for reports and golden tests).
func (s *PhaseStats) Phases() []string {
	out := make([]string, 0, len(s.m))
	for name := range s.m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Recorder returns the named phase's distribution, or nil if the phase
// was never recorded.
func (s *PhaseStats) Recorder(phase string) *LatencyRecorder { return s.m[phase] }

// Percentile returns the named phase's p-th percentile with linear
// interpolation (see LatencyRecorder.Quantile); in particular a phase
// holding a single sample returns that sample, not 0. An unrecorded
// phase returns 0.
func (s *PhaseStats) Percentile(phase string, p float64) des.Time {
	r, ok := s.m[phase]
	if !ok {
		return 0
	}
	return r.Quantile(p)
}

// Total returns the summed time across all phases.
func (s *PhaseStats) Total() des.Time {
	var total des.Time
	for _, r := range s.m {
		total += r.Sum()
	}
	return total
}

// Gauge tracks a time-weighted average of a quantity sampled over
// virtual time (memory utilization, instance counts).
type Gauge struct {
	lastT   des.Time
	lastV   float64
	area    float64
	started bool
	max     float64
}

// Observe records the quantity's value at virtual time t. Values are
// held constant between observations.
func (g *Gauge) Observe(t des.Time, v float64) {
	if g.started && t > g.lastT {
		g.area += g.lastV * float64(t-g.lastT)
	}
	if !g.started || v > g.max {
		g.max = v
	}
	g.lastT, g.lastV, g.started = t, v, true
}

// MeanOver returns the time-weighted mean from time zero (callers start
// observing at t≈0) to end.
func (g *Gauge) MeanOver(end des.Time) float64 {
	if !g.started || end <= 0 {
		return 0
	}
	area := g.area
	if end > g.lastT {
		area += g.lastV * float64(end-g.lastT)
	}
	return area / float64(end)
}

// Max returns the largest observed value.
func (g *Gauge) Max() float64 { return g.max }

// Counter is a monotonically increasing event count. The zero value is
// ready to use.
type Counter struct {
	n int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n++ }

// Add adds d (>= 0) to the counter.
func (c *Counter) Add(d int64) {
	if d < 0 {
		panic("metrics: negative counter add")
	}
	c.n += d
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }

// FaultCounters aggregates the availability-side accounting that the
// fault-injection subsystem and the autoscaler's degradation paths
// maintain, so experiments can report availability alongside latency.
type FaultCounters struct {
	// Injected counts faults fired by a fault-injection plan.
	Injected Counter
	// Retries counts operations re-attempted after a fault (e.g. a
	// restore retried on an alternate node).
	Retries Counter
	// Fallbacks counts degradations to a slower path (e.g. a cold start
	// instead of a fork) after retries were exhausted or impossible.
	Fallbacks Counter
	// RecoveredBytes counts bytes reclaimed by Device.Recover passes
	// garbage-collecting torn (unsealed) checkpoint arenas.
	RecoveredBytes Counter
	// RetryExhausted counts requests whose per-request retry budget ran
	// out — kept distinct from Fallbacks so availability reports can
	// separate "degraded by policy" from "degraded because retrying
	// stopped being worth it".
	RetryExhausted Counter
}

// ReplicaCounters aggregates the replication manager's accounting: how
// many replicas were placed, shed under capacity pressure, rebuilt by
// the anti-entropy repair loop, and how many images were lost outright
// when every replica's device failed.
type ReplicaCounters struct {
	// Placed counts replica arenas created by placement (initial and
	// repair placements both count).
	Placed Counter
	// RepairCopies counts replicas rebuilt by the repair loop.
	RepairCopies Counter
	// RepairedPages counts pages copied by the repair loop.
	RepairedPages Counter
	// Failovers counts restores served by a non-preferred replica after
	// probing one or more dead devices.
	Failovers Counter
	// Shed counts replicas dropped by replica-aware eviction (capacity
	// pressure sheds redundancy before it evicts whole images).
	Shed Counter
	// LostImages counts images that became unrestorable because their
	// last healthy replica's device failed.
	LostImages Counter
}

// DedupCounters aggregates the content-addressed frame dedup cache's
// accounting: how often a checkpoint page write was satisfied by an
// existing identical frame instead of a fresh copy, and how many fabric
// bytes that elided.
type DedupCounters struct {
	// Hits counts page writes satisfied by an existing identical frame.
	Hits Counter
	// Misses counts page writes that allocated and copied a new frame.
	Misses Counter
	// BytesSaved counts fabric write bytes elided by hits.
	BytesSaved Counter
}

// HitRate returns Hits / (Hits + Misses), or 0 with no lookups.
func (d *DedupCounters) HitRate() float64 {
	total := d.Hits.Value() + d.Misses.Value()
	if total == 0 {
		return 0
	}
	return float64(d.Hits.Value()) / float64(total)
}

// CapacityCounters aggregates the CXL capacity manager's accounting:
// watermark-driven checkpoint eviction, the admission ladder's refusals,
// and snapshot-based re-publishes of evicted checkpoints. EvictedBytes
// counts the actual device occupancy deltas (dedup-aware), not declared
// image footprints.
type CapacityCounters struct {
	// ReclaimPasses counts watermark-triggered eviction passes.
	ReclaimPasses Counter
	// Evictions counts checkpoints dropped from the object store by the
	// eviction engine.
	Evictions Counter
	// EvictedBytes counts device bytes those evictions actually freed
	// (occupancy delta; shared dedup frames and images pinned by live
	// clones contribute only what really came back).
	EvictedBytes Counter
	// DeferredBytes counts declared footprint of evicted images whose
	// release was deferred because live clones or in-flight restores
	// still hold references; the device frees it when they exit.
	DeferredBytes Counter
	// AdmitRefused counts checkpoint publications refused because the
	// device could not be brought under its high watermark — the middle
	// rung of the degradation ladder (evict → refuse → cold start).
	AdmitRefused Counter
	// Recheckpoints counts evicted checkpoints re-published from their
	// recorded frame-token snapshots.
	Recheckpoints Counter
}

// Ratio formats a/b as a multiplier string ("2.26x").
func Ratio(a, b des.Time) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", float64(a)/float64(b))
}
