// Package container models the Docker-level sandbox cost CXLporter
// manages (paper §5): container creation with its ≈130 ms
// function-independent setup cost (network, namespaces, cgroups), and
// ghost containers — pre-created, empty containers holding only 512 KB
// that wait on a control socket for a "function restoration request" and
// let a remote fork land directly inside an existing sandbox.
//
// The entry point is NewRuntime, one per node; Runtime.Create charges a
// ghost container's creation time and memory. The porter charges the
// trigger that wakes a ghost through the request's latency ledger.
package container
