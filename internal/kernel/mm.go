package kernel

import (
	"errors"
	"fmt"

	"cxlfork/internal/cachesim"
	"cxlfork/internal/des"
	"cxlfork/internal/memsim"
	"cxlfork/internal/pt"
	"cxlfork/internal/trace"
	"cxlfork/internal/vma"
)

// FaultKind classifies page faults for the Fig. 7a breakdown and the
// fault microbenchmarks.
type FaultKind int

// Fault kinds.
const (
	// FaultAnon is a minor fault allocating a zeroed anonymous page.
	FaultAnon FaultKind = iota
	// FaultFileMinor is a file fault served from the page cache.
	FaultFileMinor
	// FaultFileMajor is a file fault reading from backing storage.
	FaultFileMajor
	// FaultCoWLocal is a copy-on-write fault with a local source page.
	FaultCoWLocal
	// FaultCoWCXL is a copy-on-write fault copying from CXL memory
	// (CXLfork's migrate-on-write path).
	FaultCoWCXL
	// FaultMoA is a migrate-on-access fault copying a page from CXL (or
	// from a Mitosis parent over CXL) on a read or write.
	FaultMoA
	// FaultCXLDirect installs a direct read-only mapping of a CXL page
	// without copying (hybrid tiering's cold-page path).
	FaultCXLDirect
	// FaultMaterialize is the lazy reconstruction of a checkpointed VMA's
	// global state (file callbacks) on first touch (§4.2.1).
	FaultMaterialize
	// FaultPrefetch is the opportunistic background copy of
	// checkpoint-dirty pages into local memory after restore (§4.2.1).
	FaultPrefetch

	numFaultKinds
)

var faultKindNames = [...]string{
	"anon", "file-minor", "file-major", "cow-local", "cow-cxl",
	"moa", "cxl-direct", "vma-materialize", "prefetch",
}

func (k FaultKind) String() string { return faultKindNames[k] }

// FaultStats aggregates fault counts and the virtual time they consumed.
type FaultStats struct {
	Counts [numFaultKinds]int64
	Time   des.Time
}

// Total returns the total number of faults.
func (s *FaultStats) Total() int64 {
	var n int64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Count returns the count for one kind.
func (s *FaultStats) Count(k FaultKind) int64 { return s.Counts[k] }

// MMStats tracks per-address-space accounting.
type MMStats struct {
	Faults FaultStats
	// AccessTime is virtual time spent in load/store memory latency
	// (cache hits and misses), excluding faults.
	AccessTime des.Time
	// LLCHits/LLCMisses count data accesses by cache outcome.
	LLCHits, LLCMisses int64
}

// Overlay resolves faults on addresses whose translation is absent but
// whose data exists in checkpointed state. Mechanisms (Mitosis's remote
// paging, CXLfork's MoA and hybrid tiering) install an Overlay on the
// restored MM.
type Overlay interface {
	// Fault returns the PTE to install for va, the cost to charge, the
	// fault classification, and whether the overlay covered va. The
	// overlay allocates any local frame itself (holding the mapping
	// reference).
	Fault(mm *MM, va pt.VirtAddr, write bool) (pte pt.PTE, cost des.Time, kind FaultKind, ok bool)
}

// Common fault errors.
var (
	ErrSegfault   = errors.New("kernel: segmentation fault")
	ErrProtection = errors.New("kernel: protection violation")
)

// MM is a task's address space.
type MM struct {
	OS   *OS
	ASID uint32
	VMAs *vma.Tree
	PT   *pt.Tree

	// Overlay, when non-nil, backs unmapped checkpointed pages.
	Overlay Overlay
	// LazyVMAs marks an address space restored by attaching checkpointed
	// VMA leaves: file-backed VMAs reconstruct their global state on
	// first fault rather than at restore time.
	LazyVMAs     bool
	materialized map[int]bool

	onExit []func()

	Stats MMStats
}

func newMM(o *OS) *MM {
	return &MM{
		OS:           o,
		ASID:         o.allocASID(),
		VMAs:         vma.NewTree(),
		PT:           pt.NewTree(),
		materialized: make(map[int]bool),
	}
}

// OnExit registers a hook run at address-space teardown (checkpoint
// reference release).
func (mm *MM) OnExit(fn func()) { mm.onExit = append(mm.onExit, fn) }

func (mm *MM) teardown() {
	o := mm.OS
	mm.PT.Walk(func(va pt.VirtAddr, leaf *pt.Leaf, i int) {
		e := leaf.PTEs[i]
		if e.Flags.Has(pt.OnCXL) {
			return // owned by the checkpoint
		}
		if leaf.Protected {
			// A protected leaf's PTEs must all be OnCXL; reaching here
			// is a rebase bug.
			panic("kernel: local frame inside protected leaf")
		}
		o.Mem.Put(o.Mem.Frame(int(e.PFN)))
	})
	for _, fn := range mm.onExit {
		fn()
	}
	mm.onExit = nil
}

// charge records a fault and advances the clock.
func (mm *MM) charge(k FaultKind, cost des.Time) {
	if o := mm.OS; o.Trace.Enabled() {
		o.Trace.Emit(trace.None, o.Index, trace.TrackFaults, trace.CatFault, k.String(), o.Eng.Now(), cost, 0, 1)
	}
	mm.OS.Eng.Advance(cost)
	mm.Stats.Faults.Counts[k]++
	mm.Stats.Faults.Time += cost
	mm.OS.Faults.Counts[k]++
	mm.OS.Faults.Time += cost
}

// Mmap inserts a mapping without populating it.
func (mm *MM) Mmap(v vma.VMA) (vma.VMA, error) {
	return mm.VMAs.Insert(v)
}

// MapFrame installs a translation to an existing local frame, taking a
// mapping reference. It charges no time; restore paths charge their own
// modelled costs.
func (mm *MM) MapFrame(va pt.VirtAddr, f *memsim.Frame, flags pt.Flags) pt.SetResult {
	if f.Pool().Kind() != memsim.Local {
		panic("kernel: MapFrame requires a local frame; use MapCXL")
	}
	f.Get()
	res := mm.PT.Set(va, pt.PTE{Flags: flags | pt.Present, PFN: int32(f.PFN())})
	mm.dropOld(res.Old)
	return res
}

// MapCXL installs a translation to a CXL device frame by device PFN.
// CXL mappings are always read-only (the checkpoint stays pristine);
// writable requests are a caller bug.
func (mm *MM) MapCXL(va pt.VirtAddr, devPFN int32, flags pt.Flags) pt.SetResult {
	if flags.Has(pt.Writable) {
		panic("kernel: writable CXL mapping")
	}
	res := mm.PT.Set(va, pt.PTE{Flags: flags | pt.Present | pt.OnCXL, PFN: devPFN})
	mm.dropOld(res.Old)
	return res
}

// dropOld releases the mapping reference of a replaced PTE.
func (mm *MM) dropOld(old pt.PTE) {
	if old.Present() && !old.Flags.Has(pt.OnCXL) {
		mm.OS.Mem.Put(mm.OS.Mem.Frame(int(old.PFN)))
	}
}

// Unmap removes the translation for va, releasing the local frame ref.
func (mm *MM) Unmap(va pt.VirtAddr) {
	res := mm.PT.Clear(va)
	if res.Old.Present() {
		mm.OS.LLC.Invalidate(mm.frameOf(res.Old).CacheKey())
	}
	mm.dropOld(res.Old)
	mm.OS.TLB.Invalidate(cachesim.Key(mm.ASID, va.PageNumber()))
}

// frameOf resolves a present PTE to its physical frame.
func (mm *MM) frameOf(pte pt.PTE) *memsim.Frame {
	if pte.Flags.Has(pt.OnCXL) {
		return mm.OS.Dev.Pool().Frame(int(pte.PFN))
	}
	return mm.OS.Mem.Frame(int(pte.PFN))
}

// Access simulates one load (write=false) or store (write=true) to va,
// charging translation, cache/memory latency, and any faults. It is the
// only entry point the execution engine uses.
func (mm *MM) Access(va pt.VirtAddr, write bool) error {
	o := mm.OS
	p := &o.P
	vpn := va.PageNumber()
	key := cachesim.Key(mm.ASID, vpn)

	// Translation: TLB hit is free; a miss walks the page tables, which
	// are compact enough to live in the cache hierarchy.
	if !o.TLB.Access(key) {
		walk := 2 * p.LLCHit
		o.Eng.Advance(walk)
		mm.Stats.AccessTime += walk
	}

	pte, ok := mm.PT.Hit(va, write)
	if ok {
		frame := mm.frameOf(pte)
		var lat des.Time
		if o.LLC.Access(frame.CacheKey()) {
			lat = p.LLCHit
			mm.Stats.LLCHits++
		} else {
			mm.Stats.LLCMisses++
			if pte.Flags.Has(pt.OnCXL) {
				lat = p.CXLLatency
				o.Dev.ReadBytes += int64(p.CacheLineSize)
			} else {
				lat = p.LocalMemLatency
			}
		}
		o.Eng.Advance(lat)
		mm.Stats.AccessTime += lat
		if write {
			frame.Data = memsim.NewToken()
		}
		return nil
	}
	if pte.Present() {
		// A store through a read-only mapping.
		if pte.Flags.Has(pt.CoW) {
			return mm.cowFault(va, pte)
		}
		return fmt.Errorf("%w: store to read-only page %#x", ErrProtection, uint64(va))
	}
	return mm.fault(va, write)
}

// AccessRepeat charges n additional accesses to a page that was just
// touched (intra-invocation temporal locality): they hit in the cache.
func (mm *MM) AccessRepeat(n int) {
	if n <= 0 {
		return
	}
	lat := des.Time(n) * mm.OS.P.LLCHit
	mm.OS.Eng.Advance(lat)
	mm.Stats.AccessTime += lat
	mm.Stats.LLCHits += int64(n)
}

// fault handles a missing translation at va.
func (mm *MM) fault(va pt.VirtAddr, write bool) error {
	o := mm.OS
	p := &o.P
	v := mm.VMAs.Find(va)
	if v == nil {
		return fmt.Errorf("%w: no mapping at %#x", ErrSegfault, uint64(va))
	}
	if write && v.Prot&vma.Write == 0 {
		return fmt.Errorf("%w: store to %s mapping at %#x", ErrProtection, v.Prot, uint64(va))
	}

	// Lazily reconstruct global state for checkpoint-attached file VMAs.
	if mm.LazyVMAs && v.Kind == vma.FilePrivate && !mm.materialized[v.ID] {
		mm.materialized[v.ID] = true
		mm.charge(FaultMaterialize, p.VMAReconstruct)
	}

	if mm.Overlay != nil {
		if pte, cost, kind, ok := mm.Overlay.Fault(mm, va, write); ok {
			res := mm.PT.Set(va, pte)
			if res.BrokeLeaf {
				cost += p.CXLReadPage
			}
			mm.charge(kind, cost)
			o.LLC.Access(mm.frameOf(pte).CacheKey())
			mm.PT.MarkAccessed(va)
			return nil
		}
	}

	switch v.Kind {
	case vma.Anon:
		f, err := o.Mem.Alloc()
		if err != nil {
			return err
		}
		flags := pt.Present | pt.Accessed
		if v.Prot&vma.Write != 0 {
			flags |= pt.Writable
		}
		if write {
			flags |= pt.Dirty
			f.Data = memsim.NewToken()
		}
		res := mm.PT.Set(va, pt.PTE{Flags: flags, PFN: int32(f.PFN())})
		cost := p.AnonFault
		if res.BrokeLeaf {
			cost += p.CXLReadPage
		}
		mm.charge(FaultAnon, cost)
		o.LLC.Access(f.CacheKey())
		return nil

	case vma.FilePrivate:
		file, err := o.FS.Lookup(v.Path)
		if err != nil {
			return fmt.Errorf("kernel: file fault at %#x: %w", uint64(va), err)
		}
		idx := int((int64(va.PageBase()-v.Start) + v.FileOff) >> pt.PageShift)
		pf, hit, err := o.PageCache.Get(file, idx)
		if err != nil {
			return err
		}
		kind, cost := FaultFileMinor, p.FilePageCacheFault
		if !hit {
			kind, cost = FaultFileMajor, p.FileBackingFault
		}
		if write {
			// Private copy on first store to a file page.
			priv, err := o.Mem.Alloc()
			if err != nil {
				return err
			}
			priv.Data = memsim.NewToken()
			res := mm.MapFrame(va, priv, pt.Writable|pt.Accessed|pt.Dirty)
			o.Mem.Put(priv) // MapFrame took the mapping ref
			if res.BrokeLeaf {
				cost += p.CXLReadPage
			}
			cost += p.CoWLocalFault
			mm.charge(kind, cost)
			o.LLC.Access(priv.CacheKey())
			return nil
		}
		flags := pt.Accessed | pt.FileBacked
		if v.Prot&vma.Write != 0 {
			flags |= pt.CoW
		}
		res := mm.MapFrame(va, pf, flags)
		if res.BrokeLeaf {
			cost += p.CXLReadPage
		}
		mm.charge(kind, cost)
		o.LLC.Access(pf.CacheKey())
		return nil
	}
	return fmt.Errorf("kernel: unhandled VMA kind %v", v.Kind)
}

// cowFault copies the page at va to local memory and remaps it writable
// (migrate-on-write when the source is CXL, paper §4.2).
func (mm *MM) cowFault(va pt.VirtAddr, pte pt.PTE) error {
	o := mm.OS
	p := &o.P
	onCXL := pte.Flags.Has(pt.OnCXL)

	var src *memsim.Frame
	if onCXL {
		src = o.Dev.Pool().Frame(int(pte.PFN))
		o.Dev.ReadBytes += int64(p.PageSize)
	} else {
		src = o.Mem.Frame(int(pte.PFN))
	}
	nf, err := o.Mem.Alloc()
	if err != nil {
		return err
	}
	memsim.Copy(nf, src)
	nf.Data = memsim.NewToken() // the store that faulted modifies it

	res := mm.PT.Set(va, pt.PTE{
		Flags: pt.Present | pt.Writable | pt.Accessed | pt.Dirty,
		PFN:   int32(nf.PFN()),
	})
	if !onCXL {
		o.Mem.Put(src) // drop the old shared mapping reference
	}

	kind, cost := FaultCoWLocal, p.CoWLocalFault
	if onCXL {
		kind, cost = FaultCoWCXL, p.CoWCXLFault()
	}
	if res.BrokeLeaf {
		cost += p.CXLReadPage // leaf copy-on-write, §4.2.1
	}
	o.TLB.Invalidate(cachesim.Key(mm.ASID, va.PageNumber()))
	mm.charge(kind, cost)
	o.LLC.Access(nf.CacheKey())
	return nil
}

// ResidentLocalPages counts present PTEs backed by local frames.
func (mm *MM) ResidentLocalPages() int {
	n := 0
	mm.PT.Walk(func(_ pt.VirtAddr, l *pt.Leaf, i int) {
		if !l.PTEs[i].Flags.Has(pt.OnCXL) {
			n++
		}
	})
	return n
}

// ResidentCXLPages counts present PTEs mapping CXL frames directly.
func (mm *MM) ResidentCXLPages() int {
	n := 0
	mm.PT.Walk(func(_ pt.VirtAddr, l *pt.Leaf, i int) {
		if l.PTEs[i].Flags.Has(pt.OnCXL) {
			n++
		}
	})
	return n
}
