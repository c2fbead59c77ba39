package rforktest

import (
	"fmt"
	"testing"

	"cxlfork/internal/cluster"
	"cxlfork/internal/cxl"
	"cxlfork/internal/kernel"
	"cxlfork/internal/memsim"
	"cxlfork/internal/pt"
	"cxlfork/internal/trace"
	"cxlfork/internal/vma"
)

// CheckInvariants audits the cluster's cross-layer bookkeeping and fails
// the test with every violation found. Scenario tests call it after each
// checkpoint, restore, crash, or recovery step: the mechanisms under
// test share frames across images and nodes, and a refcount leak or a
// dangling mapping stays silent until something double-frees much later.
func CheckInvariants(t testing.TB, c *cluster.Cluster) {
	t.Helper()
	for _, err := range Invariants(c) {
		t.Errorf("invariant violated: %v", err)
	}
}

// Invariants returns every bookkeeping violation in the cluster. It
// checks two families:
//
//  1. CXL frame refcount conservation. Checkpoint arenas are the only
//     owners of device data frames (OnCXL page-table entries map frames
//     by device PFN without taking references), so every device frame's
//     refcount must equal its occurrence count across live arena frame
//     lists — a deduped frame shared by k images carries k references —
//     and the pool's used-page accounting must equal the number of
//     distinct frames with a non-zero refcount. Only frames below the
//     pool's high-water mark are walked; the rest were never allocated,
//     so the walk stays as lazy as the pool. Scenarios that allocate
//     device frames outside arenas (MmapShared producers) hold extra
//     references and are outside this checker's scope.
//
//  2. Page-table / VMA consistency per task. Every present PTE must
//     fall inside a VMA of the task, must not be writable through a
//     read-only VMA, must reference a frame inside its pool's bounds,
//     and local (non-CXL) mappings must hold live frames with at least
//     as many references as there are mappings of that frame on the
//     node. Protected CXL leaves must satisfy pt.Tree.Validate.
//
// When the cluster runs with tracing enabled, the recorded span stream
// is audited too (trace.CheckNesting): spans must nest — no span closes
// before its children — and each node's per-track timelines must be
// totally ordered by virtual time.
func Invariants(c *cluster.Cluster) []error {
	var errs []error
	errs = append(errs, deviceFrameInvariants(c.Dev)...)
	for _, node := range c.Nodes {
		errs = append(errs, nodeTaskInvariants(node)...)
	}
	if c.Trace.Enabled() {
		errs = append(errs, trace.CheckNesting(c.Trace.Events())...)
	}
	return errs
}

// deviceFrameInvariants checks CXL frame refcount conservation.
func deviceFrameInvariants(dev *cxl.Device) []error {
	var errs []error
	pool := dev.Pool()

	// Tally arena-held references per frame.
	owned := make(map[*memsim.Frame]int)
	dev.ForEachArena(func(a *cxl.Arena) {
		name := a.Name()
		a.ForEachFrame(func(f *memsim.Frame) {
			if f.Pool() != pool {
				errs = append(errs, fmt.Errorf(
					"arena %q tracks a frame from pool %q, not the device pool",
					name, f.Pool().Name()))
				return
			}
			owned[f]++
		})
	})

	// Walk only the frames the pool has handed out: every pfn at or
	// above its high-water mark was never allocated, so it is free and
	// no arena can own it. Calling Frame on those would materialize the
	// whole pool.
	touched := pool.TouchedPages()
	for f, n := range owned {
		if f.PFN() >= touched {
			errs = append(errs, fmt.Errorf(
				"arenas own never-allocated device frame %d %d times", f.PFN(), n))
		}
	}
	live := 0
	for pfn := 0; pfn < touched; pfn++ {
		f := pool.Frame(pfn)
		refs := f.Refs()
		if refs > 0 {
			live++
		}
		if want := owned[f]; refs != want {
			errs = append(errs, fmt.Errorf(
				"device frame %d holds %d refs but arenas own %d", pfn, refs, want))
		}
	}
	if used := pool.UsedPages(); used != live {
		errs = append(errs, fmt.Errorf(
			"device pool reports %d used pages but %d frames are live", used, live))
	}
	if free := pool.FreePages(); live+free != pool.CapacityPages() {
		errs = append(errs, fmt.Errorf(
			"device pool conservation broken: %d live + %d free != %d capacity",
			live, free, pool.CapacityPages()))
	}
	return errs
}

// nodeTaskInvariants checks page-table / VMA consistency for every task
// on the node, and that local mappings are backed by live frames.
func nodeTaskInvariants(node *kernel.OS) []error {
	var errs []error
	devPool := node.Dev.Pool()
	// mapped tallies local-frame mappings across all the node's tasks;
	// each mapping holds one reference, so refs >= mappings (the page
	// cache and fork-CoW sharing hold the rest).
	mapped := make(map[*memsim.Frame]int)

	node.ForEachTask(func(task *kernel.Task) {
		mm := task.MM
		if err := mm.PT.Validate(); err != nil {
			errs = append(errs, fmt.Errorf("%s/%s: %w", node.Name, task.Name, err))
		}
		mm.PT.Walk(func(va pt.VirtAddr, l *pt.Leaf, i int) {
			e := l.PTEs[i]
			v := mm.VMAs.Find(va)
			if v == nil {
				errs = append(errs, fmt.Errorf(
					"%s/%s: present PTE at %#x outside every VMA",
					node.Name, task.Name, uint64(va)))
				return
			}
			if e.Flags.Has(pt.Writable) && v.Prot&vma.Write == 0 {
				errs = append(errs, fmt.Errorf(
					"%s/%s: writable PTE at %#x inside %s VMA %q",
					node.Name, task.Name, uint64(va), v.Prot, v.Name))
			}
			pool := node.Mem
			if e.Flags.Has(pt.OnCXL) {
				pool = devPool
			}
			if int(e.PFN) < 0 || int(e.PFN) >= pool.CapacityPages() {
				errs = append(errs, fmt.Errorf(
					"%s/%s: PTE at %#x references PFN %d outside pool %q",
					node.Name, task.Name, uint64(va), e.PFN, pool.Name()))
				return
			}
			if e.Flags.Has(pt.OnCXL) {
				// Eviction safety: dropping a checkpoint from the object
				// store must never free a device frame some live clone
				// still maps — the clone's image reference defers the
				// actual release. A freed frame here means eviction (or a
				// recovery pass) tore pages out from under a running task.
				if pool.Frame(int(e.PFN)).Refs() <= 0 {
					errs = append(errs, fmt.Errorf(
						"%s/%s: OnCXL PTE at %#x maps freed device frame %d (eviction freed a frame a live clone references)",
						node.Name, task.Name, uint64(va), e.PFN))
				}
			} else {
				mapped[pool.Frame(int(e.PFN))]++
			}
		})
	})

	for f, n := range mapped {
		if f.Refs() < n {
			errs = append(errs, fmt.Errorf(
				"%s: local frame %d mapped %d times but holds only %d refs",
				node.Name, f.PFN(), n, f.Refs()))
		}
		if f.Refs() <= 0 {
			errs = append(errs, fmt.Errorf(
				"%s: local frame %d is mapped but free", node.Name, f.PFN()))
		}
	}
	return errs
}
