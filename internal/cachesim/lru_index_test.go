package cachesim

import (
	"math/rand"
	"slices"
	"testing"
)

// refLRU is the map-based reference a PageLRU must match: a residency
// map plus a recency list whose front is the MRU page.
type refLRU struct {
	capacity int
	in       map[Line]bool
	order    []Line
}

func (r *refLRU) drop(k Line) {
	r.order = slices.DeleteFunc(r.order, func(v Line) bool { return v == k })
	delete(r.in, k)
}

func (r *refLRU) access(k Line) bool {
	hit := r.in[k]
	r.drop(k)
	r.order = append([]Line{k}, r.order...)
	r.in[k] = true
	if len(r.order) > r.capacity {
		r.drop(r.order[len(r.order)-1])
	}
	return hit
}

// keysHomedAt returns n distinct keys whose home bucket in c is b.
func keysHomedAt(c *PageLRU, b, n int) []Line {
	var ks []Line
	for k := Line(1); len(ks) < n; k++ {
		if c.home(k) == b {
			ks = append(ks, k)
		}
	}
	return ks
}

// TestPageLRUIndexMatchesReference cross-checks the open-addressing
// index against the reference across Access, Invalidate, Contains, Len
// and Reset. The key set is chosen to stress the index: key 0, a group
// of keys sharing one home bucket, and a group homed at the last
// bucket, whose probe runs wrap past the table end so that deletions
// shift entries back across the wrap.
func TestPageLRUIndexMatchesReference(t *testing.T) {
	const capacity = 12
	probe := NewPageLRU(capacity)
	last := len(probe.index) - 1
	keys := []Line{0}
	keys = append(keys, keysHomedAt(probe, 3, 6)...)
	keys = append(keys, keysHomedAt(probe, last, 6)...)
	keys = append(keys, keysHomedAt(probe, last-1, 2)...)
	for k := Line(1 << 40); len(keys) < 28; k += 7919 {
		keys = append(keys, k)
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewPageLRU(capacity)
		ref := &refLRU{capacity: capacity, in: map[Line]bool{}}
		for op := 0; op < 3000; op++ {
			k := keys[rng.Intn(len(keys))]
			switch r := rng.Intn(20); {
			case r < 4:
				c.Invalidate(k)
				ref.drop(k)
			case r < 7:
				if got, want := c.Contains(k), ref.in[k]; got != want {
					t.Fatalf("seed %d op %d: Contains(%#x) = %v, want %v", seed, op, k, got, want)
				}
			case r == 7 && rng.Intn(20) == 0:
				c.Reset()
				ref.order, ref.in = nil, map[Line]bool{}
			default:
				if got, want := c.Access(k), ref.access(k); got != want {
					t.Fatalf("seed %d op %d: Access(%#x) = %v, want %v", seed, op, k, got, want)
				}
			}
			if c.Len() != len(ref.order) {
				t.Fatalf("seed %d op %d: Len = %d, want %d", seed, op, c.Len(), len(ref.order))
			}
			for _, k := range keys {
				if c.Contains(k) != ref.in[k] {
					t.Fatalf("seed %d op %d: residency of %#x = %v, want %v", seed, op, k, !ref.in[k], ref.in[k])
				}
			}
		}
	}
}

// TestPageLRUIndexWrapDeletion pins the backward-shift case directly:
// keys homed at the last bucket spill into bucket 0 and on, and removing
// the one at the table end must pull the spilled keys back so every
// remaining key is still found.
func TestPageLRUIndexWrapDeletion(t *testing.T) {
	c := NewPageLRU(8)
	last := len(c.index) - 1
	ks := keysHomedAt(c, last, 4)
	for _, k := range ks {
		c.Access(k)
	}
	if c.index[0].slot == 0 || c.index[0].key != ks[1] {
		t.Fatalf("second key homed at %d did not wrap to bucket 0: %+v", last, c.index[:3])
	}
	c.Invalidate(ks[0])
	if c.index[last].key != ks[1] || c.index[2].slot != 0 {
		t.Fatalf("deletion did not shift the wrapped run back: last=%+v head=%+v", c.index[last], c.index[:3])
	}
	for _, k := range ks[1:] {
		if !c.Contains(k) {
			t.Fatalf("key %#x lost after wrap deletion", k)
		}
	}
	if c.Contains(ks[0]) || c.Len() != 3 {
		t.Fatalf("invalidated key still resident or Len = %d", c.Len())
	}
}
