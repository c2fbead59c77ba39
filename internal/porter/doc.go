// Package porter implements CXLporter, the horizontal FaaS autoscaler
// built on remote fork (paper §5). It maintains a CID object store of
// checkpoints, a pool of ghost containers per function, dynamically
// selects CXLfork tiering policies from observed latency and memory
// pressure, and shortens keep-alive windows under pressure.
//
// Scaling experiments (Fig. 10) replay bursty arrival traces over the
// discrete-event engine. Per-request work uses profiles measured
// mechanistically in isolation (restore latency, cold and warm execution
// time, steady-state local footprint, per mechanism and tiering policy);
// the event-driven replay then captures queueing, cold-start storms, and
// memory-pressure effects that the profiles alone cannot.
//
// Entry points: New over a cluster.Cluster, then Setup to deploy and
// checkpoint a suite and Run to replay an arrival trace. In sched.go a
// warm request is served by serve, and a spawn by trySpawn's stages:
// chooseSource, place, priceFabric, bringUp and launch. Each stage
// writes its share of the request's latency into one xray.Ledger, held
// by the instance serving the request; runOnCore and observe read the
// CPU charge, the trace span and the attribution from it (DESIGN.md
// §16). The device-capacity manager — eviction policies, watermarks,
// admission, re-checkpointing — lives in capacity.go (paper §8
// discussion, DESIGN.md §10); ParseEvictPolicy maps params.EvictPolicy
// onto it.
package porter
