package experiments

import (
	"fmt"

	"cxlfork/internal/azure"
	"cxlfork/internal/cluster"
	"cxlfork/internal/core"
	"cxlfork/internal/criu"
	"cxlfork/internal/faas"
	"cxlfork/internal/mitosis"
	"cxlfork/internal/params"
	"cxlfork/internal/porter"
	"cxlfork/internal/rfork"
)

// The replay path every porter run shares — the Fig. 10, capacity,
// chaos, fabric, xray and telemetry drivers, the Azure bench leg and
// cxlfork.RunWorkload: resolve the mix (Specs), Calibrate the design's
// scenarios, build the cluster, Provision the design's porter, and
// replay a trace over Loads. Each driver keeps only its own steps
// between those, such as sizing the device (poolBytes) or injecting
// faults.

// Design names one rfork configuration of the porter: the mechanism it
// spawns with plus the tiering policy it runs (the Fig. 10 axis).
type Design string

// The porter designs.
const (
	DesignCRIU       Design = "CRIU-CXL"
	DesignMitosis    Design = "Mitosis-CXL"
	DesignCXLforkMoW Design = "CXLfork-MoW" // static migrate-on-write
	DesignCXLfork    Design = "CXLfork"     // dynamic tiering (§5)
)

// Scenarios returns the calibration scenarios the design's profiles
// need: every design measures the scratch cold start plus its own
// mechanism; dynamic tiering additionally needs the MoA and hybrid
// policies it adapts across.
func (d Design) Scenarios() ([]Scenario, error) {
	switch d {
	case DesignCXLfork:
		return []Scenario{ScenCold, ScenCXLfork, ScenCXLforkMoA, ScenCXLforkHT}, nil
	case DesignCXLforkMoW:
		return []Scenario{ScenCold, ScenCXLfork}, nil
	case DesignCRIU:
		return []Scenario{ScenCold, ScenCRIU}, nil
	case DesignMitosis:
		return []Scenario{ScenCold, ScenMitosis}, nil
	}
	return nil, fmt.Errorf("unknown design %q", d)
}

// PorterConfig returns the porter configuration of the design on c,
// with the given profiles, seed and per-node memory budget (0: node
// DRAM).
func (d Design) PorterConfig(c *cluster.Cluster, profiles map[porter.ProfileKey]porter.Profile, seed, budget int64) (porter.Config, error) {
	pcfg := porter.Config{Profiles: profiles, Seed: seed, NodeBudgetBytes: budget}
	switch d {
	case DesignCRIU:
		pcfg.Mechanism = criu.New(c.CXLFS)
	case DesignMitosis:
		pcfg.Mechanism = mitosis.New()
	case DesignCXLforkMoW:
		pcfg.Mechanism = core.New(c.Dev)
		pol := rfork.MigrateOnWrite
		pcfg.StaticPolicy = &pol
	case DesignCXLfork:
		pcfg.Mechanism = core.New(c.Dev)
		pcfg.DynamicTiering = true
	default:
		return porter.Config{}, fmt.Errorf("unknown design %q", d)
	}
	return pcfg, nil
}

// Calibrate measures the design's scenarios for every spec and turns
// them into porter profiles.
func Calibrate(p params.Params, d Design, specs []faas.Spec) (map[porter.ProfileKey]porter.Profile, error) {
	scens, err := d.Scenarios()
	if err != nil {
		return nil, err
	}
	ms, err := MeasureAll(p, specs, scens)
	if err != nil {
		return nil, err
	}
	return BuildProfiles(ms), nil
}

// Provision builds the design's porter on c and checkpoints every spec:
// the cluster is ready to replay a trace over specs.
func Provision(c *cluster.Cluster, d Design, profiles map[porter.ProfileKey]porter.Profile, seed, budget int64, specs []faas.Spec) (*porter.Porter, error) {
	pcfg, err := d.PorterConfig(c, profiles, seed, budget)
	if err != nil {
		return nil, err
	}
	po := porter.New(c, pcfg)
	if err := po.Setup(specs); err != nil {
		return nil, err
	}
	return po, nil
}

// Specs resolves function names to their workload specs; no names
// means the full suite.
func Specs(names []string) ([]faas.Spec, error) {
	if len(names) == 0 {
		return faas.Suite(), nil
	}
	specs := make([]faas.Spec, 0, len(names))
	for _, name := range names {
		s, ok := faas.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown function %q", name)
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// Loads returns the bursty per-function loads of specs, with each
// function listed in weights taking that share of the request rate
// (unlisted functions keep weight 1).
func Loads(specs []faas.Spec, weights map[string]float64) []azure.FunctionLoad {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	loads := azure.DefaultLoads(names)
	for i := range loads {
		if w, ok := weights[loads[i].Function]; ok {
			loads[i].Weight = w
		}
	}
	return loads
}

// poolBytes sizes a device to frac of footprint, rounded up to a whole
// page so frame-pool sizing stays exact.
func poolBytes(footprint int64, frac float64, pageSize int) int64 {
	ps := int64(pageSize)
	return (int64(float64(footprint)*frac) + ps - 1) / ps * ps
}
