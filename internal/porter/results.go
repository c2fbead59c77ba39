package porter

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"cxlfork/internal/metrics"
)

// hostsFn reports whether the node currently holds any state for fn: a
// pooled ghost, an idle instance, or a running one. Such nodes are
// "dedup-warm" placements — the function's pages are already resident
// locally and deduped on the device.
func (n *nodeState) hostsFn(fn string) bool {
	if n.ghosts[fn] > 0 || len(n.idle[fn]) > 0 {
		return true
	}
	for in := range n.all {
		if in.fn == fn {
			return true
		}
	}
	return false
}

// ghostFallback picks the least-loaded surviving node with room for a
// ghost container, preferring dedup-warm nodes at equal load.
func (p *Porter) ghostFallback(fn string) *nodeState {
	cands := p.cands[:0]
	for _, n := range p.nodes {
		if p.c.Faults.NodeDown(n.os.Index) || n.freePages() < p.ghostPages {
			continue
		}
		cands = append(cands, n)
	}
	p.cands = cands
	if len(cands) == 0 {
		return nil
	}
	sortByLoad(cands, fn)
	return cands[0]
}

// sortByLoad orders placement candidates least loaded (busy plus
// queued cores) first. Equal load prefers a node already hosting fn:
// its restores and re-checkpoints run against device frames this
// function's pages already deduped into, and its page cache is warm.
// The sort is stable, so remaining ties keep node order.
func sortByLoad(cands []*nodeState, fn string) {
	slices.SortStableFunc(cands, func(a, b *nodeState) int {
		if c := cmp.Compare(a.cpu.Busy()+a.cpu.QueueLen(), b.cpu.Busy()+b.cpu.QueueLen()); c != 0 {
			return c
		}
		ha, hb := a.hostsFn(fn), b.hostsFn(fn)
		switch {
		case ha == hb:
			return 0
		case ha:
			return -1
		}
		return 1
	})
}

// Fingerprint folds every scalar result and the latency distributions
// into one FNV-1a hash. Two replays of the same seeded trace must
// produce equal fingerprints — the golden determinism tests compare
// them across runs and lane counts.
func (r Results) Fingerprint() uint64 {
	h := newFingerprint()
	h.word(uint64(r.Completed))
	h.word(uint64(r.WarmStarts))
	h.word(uint64(r.ColdForks))
	h.word(uint64(r.ScratchCold))
	h.word(uint64(r.Evictions))
	h.word(uint64(r.CkptReclaims))
	h.word(uint64(r.WindowCompleted))
	h.word(uint64(r.Duration))
	h.word(uint64(r.PolicyPromotions))
	h.word(uint64(r.InjectedFaults))
	h.word(uint64(r.Retries))
	h.word(uint64(r.Fallbacks))
	h.word(uint64(r.RecoveredBytes))
	h.word(uint64(r.DedupHits))
	h.word(uint64(r.DedupMisses))
	h.word(uint64(r.DedupBytesSaved))
	h.word(uint64(r.ReclaimPasses))
	h.word(uint64(r.EvictedCkpts))
	h.word(uint64(r.EvictedBytes))
	h.word(uint64(r.DeferredBytes))
	h.word(uint64(r.CkptRefused))
	h.word(uint64(r.Recheckpoints))
	h.word(uint64(r.FailedRestores))
	h.word(uint64(r.RetryExhausted))
	h.word(uint64(r.Failovers))
	h.word(uint64(r.ReplicasPlaced))
	h.word(uint64(r.ReplicasShed))
	h.word(uint64(r.RepairCopies))
	h.word(uint64(r.RepairedPages))
	h.word(uint64(r.LostImages))
	h.word(uint64(r.UnderReplicated))
	h.word(uint64(r.RepairConverged))
	h.recorder(r.Overall)
	h.recorder(r.ColdLatency)

	fns := make([]string, 0, len(r.PerFunction))
	for fn := range r.PerFunction {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	for _, fn := range fns {
		h.str(fn)
		h.recorder(r.PerFunction[fn])
	}

	gauges := make([]string, 0, len(r.MemGauge))
	for name := range r.MemGauge {
		gauges = append(gauges, name)
	}
	sort.Strings(gauges)
	for _, name := range gauges {
		h.str(name)
		h.word(math.Float64bits(r.MemGauge[name].Max()))
		h.word(math.Float64bits(r.MemGauge[name].MeanOver(r.Duration)))
	}
	return h.sum
}

// fingerprint is a tiny incremental FNV-1a accumulator.
type fingerprint struct{ sum uint64 }

func newFingerprint() *fingerprint {
	return &fingerprint{sum: 14695981039346656037}
}

func (f *fingerprint) byte(b byte) {
	f.sum ^= uint64(b)
	f.sum *= 1099511628211
}

func (f *fingerprint) word(v uint64) {
	for i := 0; i < 8; i++ {
		f.byte(byte(v >> (8 * i)))
	}
}

func (f *fingerprint) str(s string) {
	for i := 0; i < len(s); i++ {
		f.byte(s[i])
	}
	f.byte(0)
}

func (f *fingerprint) recorder(r *metrics.LatencyRecorder) {
	if r == nil {
		f.word(0)
		return
	}
	f.word(uint64(r.Count()))
	f.word(uint64(r.Mean()))
	f.word(uint64(r.P50()))
	f.word(uint64(r.P99()))
	f.word(uint64(r.Max()))
}
