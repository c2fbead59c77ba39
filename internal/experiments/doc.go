// Package experiments contains one driver per table and figure of the
// paper's evaluation (see DESIGN.md §3 for the index). Every driver
// returns typed results and can render the same rows/series the paper
// reports; cmd/cxlsim exposes them on the command line and bench_test.go
// wraps them as benchmarks.
//
// Each driver is an exported function (Ckpt, Scale, Capacity, Faults,
// Workflow, ...) taking params.Params and a config struct and returning
// a result with a Render method; ExpParams is the shared platform
// configuration. Every porter replay, including cxlfork.RunWorkload's,
// goes through replay.go: the Design table, Calibrate and Provision.
package experiments
