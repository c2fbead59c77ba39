// Package des implements a deterministic discrete-event simulation engine.
//
// Every latency in this repository is accounted in virtual nanoseconds on
// an Engine. Simple sequential experiments advance the clock directly with
// Engine.Advance; concurrent scenarios (the CXLporter autoscaler) schedule
// events on the engine's heap and run them in timestamp order. Ties are
// broken by insertion order, so a simulation with a fixed RNG seed is
// fully reproducible.
//
// Entry points: NewEngine; Engine.At, After and Every schedule events
// and return an EventID for Cancel; Engine.Stream feeds a pre-sorted
// arrival sequence lazily, ranked as if every arrival had been
// scheduled with At at the call; Engine.Run drains them; and
// NewResource models a contended unit with FIFO queueing. Pending
// events sit in a 4-ary value heap beside a pooled slot table, and
// cancelled entries are swept out once they outnumber live ones, so a
// dispatch costs O(log events-in-flight). The engine's determinism is
// what makes every figure reproducible bit-for-bit (DESIGN.md §1).
package des
