package cachesim

import (
	"math/rand"
	"testing"
)

func BenchmarkPageLRUHit(b *testing.B) {
	c := NewPageLRU(16384)
	for i := uint64(0); i < 16384; i++ {
		c.Access(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i % 16384))
	}
}

func BenchmarkPageLRUThrash(b *testing.B) {
	c := NewPageLRU(16384)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i % 40000))
	}
}

// BenchmarkPageLRUUniform mirrors the LLC under a large function: a
// 64 MiB cache of 4 KiB pages probed uniformly over 160K pages, so
// about nine accesses in ten miss and evict.
func BenchmarkPageLRUUniform(b *testing.B) {
	c := NewPageLRU(16384)
	rng := rand.New(rand.NewSource(1))
	keys := make([]Line, 1<<20)
	for i := range keys {
		keys[i] = Key(1, uint64(rng.Intn(160000)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(keys[i&(len(keys)-1)])
	}
}
