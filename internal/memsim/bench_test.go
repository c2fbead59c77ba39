package memsim

import "testing"

// BenchmarkNewPool builds one node's worth of DRAM (128 GiB of 4 KiB
// frames) and allocates its first frame — the setup cost every cluster
// build pays per pool.
func BenchmarkNewPool(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := NewPool("bench", Local, 128<<30, 4096)
		p.MustAlloc()
	}
}
