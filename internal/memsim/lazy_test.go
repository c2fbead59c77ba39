package memsim

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

// eagerFrame and eagerPool are the reference model a lazy pool must
// match: every frame built up front, and a free stack that starts as
// [capacity-1 … 0] so pfns pop low to high.
type eagerFrame struct {
	data uint64
	refs int
	gen  uint32
}

type eagerPool struct {
	frames         []eagerFrame
	free           []int
	used, peakUsed int
}

func newEagerPool(n int) *eagerPool {
	e := &eagerPool{frames: make([]eagerFrame, n), free: make([]int, n)}
	for i := range e.free {
		e.free[i] = n - 1 - i
	}
	return e
}

func (e *eagerPool) alloc() (int, bool) {
	if len(e.free) == 0 {
		return 0, false
	}
	pfn := e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	f := &e.frames[pfn]
	f.data, f.refs = 0, 1
	f.gen++
	e.used++
	e.peakUsed = max(e.peakUsed, e.used)
	return pfn, true
}

func (e *eagerPool) put(pfn int) {
	f := &e.frames[pfn]
	f.refs--
	if f.refs == 0 {
		e.used--
		e.free = append(e.free, pfn)
	}
}

// TestLazyPoolMatchesEagerReference drives a lazy pool spanning several
// chunks, the last one partial, through a seeded random sequence of
// Alloc/Get/Put/Frame/ResetPeak and checks every observable against the
// eager model: the pfn sequence, each frame's gen, Data, refs and
// CacheKey, the Used/Free/Peak counters, the high-water mark, and that
// ErrOutOfMemory fires exactly when the model's free stack is empty.
func TestLazyPoolMatchesEagerReference(t *testing.T) {
	const capacity = 2*chunkFrames + 100
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := NewPool("lazy", Local, capacity*4096, 4096)
		ref := newEagerPool(capacity)
		var live []int // one entry per held reference
		ooms, touched := 0, 0
		check := func(pfn int) {
			t.Helper()
			f, rf := p.Frame(pfn), &ref.frames[pfn]
			if f.PFN() != pfn || f.Data != rf.data || f.Refs() != rf.refs || f.gen != rf.gen {
				t.Fatalf("seed %d: frame %d = {data %d refs %d gen %d}, want {%d %d %d}",
					seed, pfn, f.Data, f.Refs(), f.gen, rf.data, rf.refs, rf.gen)
			}
			want := uint64(p.id)<<56 | uint64(pfn)<<24 | uint64(rf.gen&0xffffff)
			if got := f.CacheKey(); got != want {
				t.Fatalf("seed %d: frame %d CacheKey = %#x, want %#x", seed, pfn, got, want)
			}
		}
		for op := 0; op < 60000; op++ {
			// Phases bias toward allocation, then toward release, so the
			// pool fills to exhaustion and drains repeatedly.
			allocBias := 7
			if (op/8000)%2 == 1 {
				allocBias = 3
			}
			switch r := rng.Intn(10); {
			case r < allocBias:
				f, err := p.Alloc()
				pfn, ok := ref.alloc()
				if !ok {
					if !errors.Is(err, ErrOutOfMemory) {
						t.Fatalf("seed %d op %d: Alloc at capacity err = %v", seed, op, err)
					}
					ooms++
					continue
				}
				if err != nil {
					t.Fatalf("seed %d op %d: Alloc with %d free: %v", seed, op, len(ref.free)+1, err)
				}
				if f.PFN() != pfn {
					t.Fatalf("seed %d op %d: Alloc pfn %d, want %d", seed, op, f.PFN(), pfn)
				}
				touched = max(touched, pfn+1)
				tok := NewToken()
				f.Data, ref.frames[pfn].data = tok, tok
				live = append(live, pfn)
				check(pfn)
			case r == 7 && len(live) > 0:
				pfn := live[rng.Intn(len(live))]
				p.Frame(pfn).Get()
				ref.frames[pfn].refs++
				live = append(live, pfn)
			case r == 8:
				check(rng.Intn(capacity))
			case len(live) > 0:
				i := rng.Intn(len(live))
				pfn := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				p.Put(p.Frame(pfn))
				ref.put(pfn)
				check(pfn)
			}
			if rng.Intn(5000) == 0 {
				p.ResetPeak()
				ref.peakUsed = ref.used
			}
			if p.UsedPages() != ref.used || p.FreePages() != capacity-ref.used ||
				p.PeakUsedPages() != ref.peakUsed || p.TouchedPages() != touched {
				t.Fatalf("seed %d op %d: used/free/peak/touched = %d/%d/%d/%d, want %d/%d/%d/%d", seed, op,
					p.UsedPages(), p.FreePages(), p.PeakUsedPages(), p.TouchedPages(),
					ref.used, capacity-ref.used, ref.peakUsed, touched)
			}
		}
		if ooms == 0 {
			t.Fatalf("seed %d: the sequence never exhausted the pool", seed)
		}
		for pfn := 0; pfn < capacity; pfn++ {
			check(pfn)
		}
	}
}

// TestNewPoolFootprint pins the point of lazy pools: building a 1 TiB
// pool and allocating from it costs its chunk table and one chunk, not
// its capacity.
func TestNewPoolFootprint(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := NewPool("huge", Local, 1<<40, 4096)
	for i := 0; i < 100; i++ {
		p.MustAlloc()
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("1 TiB pool with 100 frames allocated %d bytes, want < 1 MiB", got)
	}
	if p.CapacityPages() != 1<<28 || p.FreePages() != 1<<28-100 {
		t.Fatalf("capacity %d free %d", p.CapacityPages(), p.FreePages())
	}
	runtime.KeepAlive(p)
}
