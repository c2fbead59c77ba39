package experiments

import (
	"testing"

	"cxlfork/internal/azure"
	"cxlfork/internal/cluster"
	"cxlfork/internal/des"
	"cxlfork/internal/faas"
	"cxlfork/internal/fabric"
)

// goldenFabric pins the fabric sweep's fold at the config below. The
// contract matches the §13 worker goldens: every SimWorkers count must
// reproduce it byte for byte, and a rerun in the same binary must too —
// the sweep's analytic contention model may not perturb event order.
const goldenFabric = 0x9e58559b4eaf7d7a

// goldenFabricConfig is a trimmed two-cell-per-switch sweep that still
// crosses the interesting axes: single vs sharded, hash vs locality.
func goldenFabricConfig() FabricExpConfig {
	cfg := DefaultFabricExpConfig()
	cfg.RPS = 120
	cfg.Duration = 4 * des.Second
	cfg.Switches = []int{2}
	cfg.Devices = []int{1, 6}
	return cfg
}

// goldenFabricRestore pins each cell's restore-phase tail and sample
// count, which the sweep fingerprint leaves out: the restore-latency
// recorder must keep recording the same value per fork restore.
var goldenFabricRestore = []struct {
	sw, dev int
	pol     string
	p99     des.Time
	count   int
}{
	{2, 1, "hash", 1575331521, 223},
	{2, 6, "hash", 380915062, 194},
	{2, 6, "locality", 315023518, 191},
}

func TestGoldenFabricWorkerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("porter replays are slow")
	}
	for _, workers := range goldenWorkerCounts {
		p := ExpParams()
		p.SimWorkers = workers
		r, err := FabricSweep(p, goldenFabricConfig())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if h := r.Fingerprint(); h != uint64(goldenFabric) {
			t.Fatalf("workers=%d: fabric fingerprint %#x, golden %#x", workers, h, uint64(goldenFabric))
		}
		if len(r.Runs) != len(goldenFabricRestore) {
			t.Fatalf("workers=%d: %d cells, want %d", workers, len(r.Runs), len(goldenFabricRestore))
		}
		for _, g := range goldenFabricRestore {
			run := r.run(g.sw, g.dev, g.pol)
			if run == nil {
				t.Fatalf("workers=%d: cell %d/%d/%s missing", workers, g.sw, g.dev, g.pol)
			}
			if n := run.Results.RestoreLatency.Count(); run.RestoreP99 != g.p99 || n != g.count {
				t.Fatalf("workers=%d: cell %d/%d/%s restore p99 %d over %d, golden %d over %d",
					workers, g.sw, g.dev, g.pol, run.RestoreP99, n, g.p99, g.count)
			}
		}
	}
}

func TestGoldenFabricRerunStability(t *testing.T) {
	if testing.Short() {
		t.Skip("porter replays are slow")
	}
	p := ExpParams()
	a, err := FabricSweep(p, goldenFabricConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := FabricSweep(p, goldenFabricConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("rerun diverged: %#x vs %#x", a.Fingerprint(), b.Fingerprint())
	}
}

// TestDegenerateTopologyMatchesFlatModel is the backward-compatibility
// wall: a 1-switch 1-device grid builds a Trivial topology, carries no
// Net, and must replay the trace byte-identically to today's flat
// single-pool model (no Topology at all). Any fabric-side charge that
// leaks into the degenerate case breaks every pinned golden in the
// repo, so this test fails first and points at the right layer.
func TestDegenerateTopologyMatchesFlatModel(t *testing.T) {
	if testing.Short() {
		t.Skip("porter replays are slow")
	}
	replay := func(topology string) uint64 {
		t.Helper()
		p := ExpParams()
		p.Topology = topology
		p.KeepAlive = 100 * des.Millisecond
		specs := faas.Suite()[:4]
		profiles, err := Calibrate(p, DesignCXLforkMoW, specs)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cluster.New(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		if topology != "" {
			if c.Topo == nil || !c.Topo.Trivial() {
				t.Fatal("degenerate grid did not build a Trivial topology")
			}
			if c.Net != nil {
				t.Fatal("Trivial topology must not carry a Net")
			}
		}
		po, err := Provision(c, DesignCXLforkMoW, profiles, 3, 0, specs)
		if err != nil {
			t.Fatal(err)
		}
		trace := azure.Generate(azure.TraceConfig{
			TotalRPS: 60,
			Duration: 4 * des.Second,
			Loads:    Loads(specs, nil),
			Seed:     3,
		})
		return po.Run(trace).Fingerprint()
	}
	flat := replay("")
	degenerate := replay(fabric.GridSpec(2, 1, 1))
	if flat != degenerate {
		t.Fatalf("degenerate topology diverged from flat model: %#x vs %#x", flat, degenerate)
	}
}
