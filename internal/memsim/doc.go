// Package memsim models physical memory: fixed-size page frames grouped
// into pools (one local DRAM pool per node, one shared pool on the CXL
// device). Frames carry a content token instead of real bytes, so a
// 630 MB process footprint costs the simulation a few MB while copies,
// sharing, and corruption remain observable: two frames hold identical
// page contents iff their tokens are equal. Pools build their frames
// lazily, a chunk at a time, so a pool costs what its allocations
// touch rather than its configured capacity.
//
// Entry points: NewPool; NewToken mints fresh page contents and Copy
// duplicates frames preserving tokens. The frames stand in for the data
// pages CXLfork checkpoints as-is (paper §4.1).
package memsim
