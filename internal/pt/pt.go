package pt

import "fmt"

// Geometry of the 4-level x86-64-style tree.
const (
	// EntriesPerTable is the fan-out of every level.
	EntriesPerTable = 512
	// PageShift is log2(page size).
	PageShift = 12
	// Levels is the tree depth (PGD, PUD, PMD, PTE-leaf).
	Levels = 4
	// LeafSpan is the bytes of virtual address space one leaf covers.
	LeafSpan = EntriesPerTable << PageShift
)

// VirtAddr is a virtual address.
type VirtAddr uint64

// PageNumber returns va's virtual page number.
func (va VirtAddr) PageNumber() uint64 { return uint64(va) >> PageShift }

// PageBase returns the page-aligned base of va.
func (va VirtAddr) PageBase() VirtAddr { return va &^ (1<<PageShift - 1) }

// LeafBase returns the base address of the leaf table covering va.
func (va VirtAddr) LeafBase() VirtAddr { return va &^ (LeafSpan - 1) }

// index returns the table index of va at the given level (1 = leaf).
func index(va VirtAddr, level int) int {
	shift := PageShift + 9*(level-1)
	return int(uint64(va)>>shift) & (EntriesPerTable - 1)
}

// Flags is the PTE flag set.
type Flags uint16

const (
	// Present marks a valid translation.
	Present Flags = 1 << iota
	// Writable allows stores through this mapping.
	Writable
	// Accessed is set by the hardware walker on any access.
	Accessed
	// Dirty is set by the hardware walker on stores.
	Dirty
	// CoW is the software copy-on-write bit: stores fault and copy.
	CoW
	// OnCXL marks the frame as living in the shared CXL pool; the PFN
	// is then a device-relative frame number valid on any node.
	OnCXL
	// UserHot is the software bit user-space profilers set to declare a
	// page hot for hybrid tiering (§4.3).
	UserHot
	// FileBacked marks a page belonging to a private file mapping.
	FileBacked
)

// Has reports whether all bits in mask are set.
func (f Flags) Has(mask Flags) bool { return f&mask == mask }

// PTE is one page-table entry. PFN is interpreted against the node-local
// pool, or against the CXL device pool when OnCXL is set — which is what
// makes a rebased leaf meaningful on every node.
type PTE struct {
	Flags Flags
	PFN   int32
}

// Present reports whether the entry maps a page.
func (e PTE) Present() bool { return e.Flags.Has(Present) }

// Leaf is a last-level table of 512 PTEs.
type Leaf struct {
	PTEs [EntriesPerTable]PTE

	// InCXL marks a leaf that physically resides in a checkpoint arena
	// on the CXL device (it may be attached by many trees on many
	// nodes).
	InCXL bool
	// Protected write-protects the leaf against OS updates: flag or PFN
	// changes must copy the leaf first. A/D bit updates by the hardware
	// walker are exempt.
	Protected bool
}

// Present counts present entries.
func (l *Leaf) Present() int {
	n := 0
	for i := range l.PTEs {
		if l.PTEs[i].Present() {
			n++
		}
	}
	return n
}

// Clone returns a local, unprotected copy of the leaf.
func (l *Leaf) Clone() *Leaf {
	c := &Leaf{PTEs: l.PTEs}
	return c
}

// upper is an internal node. Level 2 nodes point at leaves; levels 3-4
// point at other uppers.
type upper struct {
	level  int
	tables [EntriesPerTable]*upper
	leaves [EntriesPerTable]*Leaf
}

// Stats tracks structural events for cost accounting by callers.
type Stats struct {
	// LocalUppers and LocalLeaves count locally-allocated table nodes.
	LocalUppers int
	LocalLeaves int
	// AttachedLeaves counts checkpointed leaves currently attached.
	AttachedLeaves int
	// LeafBreaks counts leaf copy-on-write events (protected leaf
	// copied to local memory because the OS updated a PTE).
	LeafBreaks int
}

// Tree is one process's page-table tree.
type Tree struct {
	root  *upper
	stats Stats
}

// NewTree returns an empty tree with a local root.
func NewTree() *Tree {
	t := &Tree{root: &upper{level: Levels}}
	t.stats.LocalUppers = 1
	return t
}

// Stats returns structural counters.
func (t *Tree) Stats() Stats { return t.stats }

// Lookup returns the PTE mapping va and whether a leaf covers va at all.
// The bool is false only when no leaf exists; a non-present PTE in an
// existing leaf returns (pte, true).
func (t *Tree) Lookup(va VirtAddr) (PTE, bool) {
	l := t.leaf(va)
	if l == nil {
		return PTE{}, false
	}
	return l.PTEs[index(va, 1)], true
}

func (t *Tree) leaf(va VirtAddr) *Leaf {
	n := t.root
	for lvl := Levels; lvl > 2; lvl-- {
		n = n.tables[index(va, lvl)]
		if n == nil {
			return nil
		}
	}
	return n.leaves[index(va, 2)]
}

// ensurePath walks to level 2, allocating upper nodes as needed, and
// returns the level-2 node.
func (t *Tree) ensurePath(va VirtAddr) *upper {
	n := t.root
	for lvl := Levels; lvl > 2; lvl-- {
		i := index(va, lvl)
		if n.tables[i] == nil {
			n.tables[i] = &upper{level: lvl - 1}
			t.stats.LocalUppers++
		}
		n = n.tables[i]
	}
	return n
}

// SetResult reports what Set had to do, so callers can charge costs.
type SetResult struct {
	// NewUppers is the number of upper nodes allocated.
	NewUppers int
	// NewLeaf is true if a local leaf was allocated.
	NewLeaf bool
	// BrokeLeaf is true if a protected leaf was copied to local memory
	// (leaf CoW) to permit the update.
	BrokeLeaf bool
	// Old is the previous entry value.
	Old PTE
}

// Set installs pte for va, allocating the path, and breaking protected
// leaves by copy. It returns what it did.
func (t *Tree) Set(va VirtAddr, pte PTE) SetResult {
	var res SetResult
	before := t.stats.LocalUppers
	l2 := t.ensurePath(va)
	res.NewUppers = t.stats.LocalUppers - before
	i2 := index(va, 2)
	leaf := l2.leaves[i2]
	switch {
	case leaf == nil:
		leaf = &Leaf{}
		l2.leaves[i2] = leaf
		t.stats.LocalLeaves++
		res.NewLeaf = true
	case leaf.Protected:
		// Leaf CoW: the checkpointed leaf stays pristine in CXL.
		local := leaf.Clone()
		l2.leaves[i2] = local
		if leaf.InCXL {
			t.stats.AttachedLeaves--
		}
		t.stats.LocalLeaves++
		t.stats.LeafBreaks++
		res.BrokeLeaf = true
		leaf = local
	}
	res.Old = leaf.PTEs[index(va, 1)]
	leaf.PTEs[index(va, 1)] = pte
	return res
}

// Clear removes the mapping for va (if any), breaking protected leaves.
func (t *Tree) Clear(va VirtAddr) SetResult {
	if l := t.leaf(va); l == nil || !l.PTEs[index(va, 1)].Present() {
		old := PTE{}
		if l != nil {
			old = l.PTEs[index(va, 1)]
		}
		return SetResult{Old: old}
	}
	return t.Set(va, PTE{})
}

// AttachLeaf links a checkpointed leaf into the tree at vaBase, which
// must be leaf-aligned. The slot must be empty: restore attaches into a
// fresh tree (§4.2.1).
func (t *Tree) AttachLeaf(vaBase VirtAddr, leaf *Leaf) error {
	if vaBase.LeafBase() != vaBase {
		return fmt.Errorf("pt: attach address %#x not leaf-aligned", uint64(vaBase))
	}
	if !leaf.Protected {
		return fmt.Errorf("pt: refusing to attach unprotected leaf at %#x", uint64(vaBase))
	}
	l2 := t.ensurePath(vaBase)
	i2 := index(vaBase, 2)
	if l2.leaves[i2] != nil {
		return fmt.Errorf("pt: leaf slot at %#x already populated", uint64(vaBase))
	}
	l2.leaves[i2] = leaf
	t.stats.AttachedLeaves++
	return nil
}

// Hit is the hardware walker's translation of one load (write=false)
// or store through va. When the PTE is present and permits the access
// it sets Accessed, and Dirty for a store, in place (allowed even on
// protected CXL leaves, as for MarkAccessed) and returns the updated
// entry with ok true. Otherwise nothing changes: it returns the entry,
// zero when no leaf covers va, with ok false, and the caller takes the
// fault.
func (t *Tree) Hit(va VirtAddr, write bool) (pte PTE, ok bool) {
	l := t.leaf(va)
	if l == nil {
		return PTE{}, false
	}
	e := &l.PTEs[index(va, 1)]
	if !e.Present() || write && !e.Flags.Has(Writable) {
		return *e, false
	}
	if write {
		e.Flags |= Accessed | Dirty
	} else {
		e.Flags |= Accessed
	}
	return *e, true
}

// MarkAccessed sets the Accessed bit in place — allowed even on
// protected CXL leaves, modelling the hardware walker updating A bits on
// checkpointed PTEs (§4.3). It reports whether the bit was newly set.
func (t *Tree) MarkAccessed(va VirtAddr) bool {
	l := t.leaf(va)
	if l == nil {
		return false
	}
	e := &l.PTEs[index(va, 1)]
	if !e.Present() || e.Flags.Has(Accessed) {
		return false
	}
	e.Flags |= Accessed
	return true
}

// ClearABits clears the Accessed bit on every present entry, in place,
// including protected CXL leaves — the user-space interface CXLporter
// uses to re-estimate hot sets (§4.3). It returns the number of bits
// cleared.
func (t *Tree) ClearABits() int {
	n := 0
	t.Walk(func(va VirtAddr, l *Leaf, i int) {
		if l.PTEs[i].Flags.Has(Accessed) {
			l.PTEs[i].Flags &^= Accessed
			n++
		}
	})
	return n
}

// ClearDirtyBits clears the Dirty bit on every present entry, in place.
// Together with ClearABits it implements the "clear A/D after the first
// invocation" step of checkpoint shaping (paper §5). It returns the
// number of bits cleared.
func (t *Tree) ClearDirtyBits() int {
	n := 0
	t.Walk(func(va VirtAddr, l *Leaf, i int) {
		if l.PTEs[i].Flags.Has(Dirty) {
			l.PTEs[i].Flags &^= Dirty
			n++
		}
	})
	return n
}

// SetUserHot sets the UserHot software bit in place on the PTE for va
// (the user-identified hot page interface, §4.3).
func (t *Tree) SetUserHot(va VirtAddr) bool {
	l := t.leaf(va)
	if l == nil {
		return false
	}
	e := &l.PTEs[index(va, 1)]
	if !e.Present() {
		return false
	}
	e.Flags |= UserHot
	return true
}

// Walk visits every present PTE in ascending VA order.
func (t *Tree) Walk(fn func(va VirtAddr, leaf *Leaf, idx int)) {
	t.walkUpper(t.root, 0, fn)
}

func (t *Tree) walkUpper(n *upper, base uint64, fn func(VirtAddr, *Leaf, int)) {
	shift := uint(PageShift + 9*(n.level-1))
	if n.level == 2 {
		for i, l := range n.leaves {
			if l == nil {
				continue
			}
			leafBase := base | uint64(i)<<shift
			for j := range l.PTEs {
				if l.PTEs[j].Present() {
					fn(VirtAddr(leafBase|uint64(j)<<PageShift), l, j)
				}
			}
		}
		return
	}
	for i, c := range n.tables {
		if c != nil {
			t.walkUpper(c, base|uint64(i)<<shift, fn)
		}
	}
}

// WalkLeaves visits every leaf with its base address, in VA order.
func (t *Tree) WalkLeaves(fn func(base VirtAddr, leaf *Leaf)) {
	t.walkLeafUpper(t.root, 0, fn)
}

func (t *Tree) walkLeafUpper(n *upper, base uint64, fn func(VirtAddr, *Leaf)) {
	shift := uint(PageShift + 9*(n.level-1))
	if n.level == 2 {
		for i, l := range n.leaves {
			if l != nil {
				fn(VirtAddr(base|uint64(i)<<shift), l)
			}
		}
		return
	}
	for i, c := range n.tables {
		if c != nil {
			t.walkLeafUpper(c, base|uint64(i)<<shift, fn)
		}
	}
}

// Validate checks the tree's structural invariants, most importantly
// the rebase/protection contract: a protected leaf may only contain
// read-only CXL entries (a local frame or writable entry inside a
// protected leaf means a checkpoint was corrupted or a leaf-CoW was
// skipped). Tests call it after restore and fault storms.
func (t *Tree) Validate() error {
	var err error
	t.WalkLeaves(func(base VirtAddr, l *Leaf) {
		if err != nil {
			return
		}
		if !l.Protected {
			return
		}
		for i := range l.PTEs {
			e := l.PTEs[i]
			if !e.Present() {
				continue
			}
			if !e.Flags.Has(OnCXL) {
				err = fmt.Errorf("pt: protected leaf at %#x holds a non-CXL frame at slot %d",
					uint64(base), i)
				return
			}
			if e.Flags.Has(Writable) {
				err = fmt.Errorf("pt: protected leaf at %#x holds a writable entry at slot %d",
					uint64(base), i)
				return
			}
		}
	})
	return err
}

// CountPresent returns the number of present PTEs.
func (t *Tree) CountPresent() int {
	n := 0
	t.Walk(func(VirtAddr, *Leaf, int) { n++ })
	return n
}
