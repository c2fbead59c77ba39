package core

import (
	"errors"
	"fmt"

	"cxlfork/internal/cxl"
	"cxlfork/internal/des"
	"cxlfork/internal/faultinject"
	"cxlfork/internal/kernel"
	"cxlfork/internal/memsim"
	"cxlfork/internal/pt"
	"cxlfork/internal/rfork"
	"cxlfork/internal/trace"
	"cxlfork/internal/vma"
	"cxlfork/internal/wire"
)

// ptLeafRef is one rebased page-table leaf: its virtual base plus the
// arena offset of the leaf object. The sorted slice of refs is the
// checkpointed tree's "upper levels" in machine-independent form.
type ptLeafRef struct {
	base pt.VirtAddr
	off  cxl.Offset
}

// Checkpoint is a CXLfork checkpoint resident on the CXL device.
//
// Layout: data pages live as frames in the device's shared pool;
// page-table leaves, VMA leaves, and the lightly-serialized global
// state live in a per-checkpoint arena, referenced by offsets. The
// leaf PTEs store device PFNs with the OnCXL flag — the result of the
// rebase step (§4.1 step 7) — so any OS instance can dereference them.
type Checkpoint struct {
	id    string
	dev   *cxl.Device
	arena *cxl.Arena

	ptLeaves  []ptLeafRef
	vmaLeaves []cxl.Offset
	globalOff cxl.Offset

	dataPages  int
	dirtyPages int
	filePages  int
	vmaCount   int
	dedupHits  int

	refs rfork.RefCount
}

// Statically assert the rfork.Image contract.
var _ rfork.Image = (*Checkpoint)(nil)

// ID returns the checkpoint ID.
func (c *Checkpoint) ID() string { return c.id }

// Mechanism returns "CXLfork".
func (c *Checkpoint) Mechanism() string { return "CXLfork" }

// CXLBytes returns device bytes held: data frames plus arena metadata.
func (c *Checkpoint) CXLBytes() int64 {
	return int64(c.dataPages)*int64(c.dev.Pool().PageSize()) + c.arena.Bytes()
}

// LocalBytes is zero: CXLfork holds no parent-node state, so the parent
// may exit and its node is not a point of failure (§3.1).
func (c *Checkpoint) LocalBytes() int64 { return 0 }

// ReclaimableBytes returns the device occupancy delta releasing this
// image right now would produce: arena metadata plus data frames no
// other image shares (dedup-aware, unlike the declared CXLBytes
// footprint). The capacity manager sizes eviction passes with this.
func (c *Checkpoint) ReclaimableBytes() int64 { return c.arena.ExclusiveBytes() }

// FrameTokens returns the content tokens of the image's data frames, in
// tracking order — a re-publish recipe: allocating these tokens through
// the device's dedup index (Device.AllocToken) rebuilds an equivalent
// frame set, re-sharing whatever content still lives on the device. The
// capacity manager records this at publication so a function whose
// checkpoint was evicted can be re-checkpointed without a live parent.
func (c *Checkpoint) FrameTokens() []uint64 {
	toks := make([]uint64, 0, c.dataPages)
	c.arena.ForEachFrame(func(f *memsim.Frame) { toks = append(toks, f.Data) })
	return toks
}

// MetaBytes returns the arena-metadata portion of the image's footprint
// (checkpointed OS structures, as opposed to data frames).
func (c *Checkpoint) MetaBytes() int64 { return c.arena.Bytes() }

// Pages returns the number of checkpointed data pages.
func (c *Checkpoint) Pages() int { return c.dataPages }

// DirtyPages returns how many checkpointed pages carry the Dirty bit.
func (c *Checkpoint) DirtyPages() int { return c.dirtyPages }

// FilePages returns how many checkpointed pages back private file
// mappings.
func (c *Checkpoint) FilePages() int { return c.filePages }

// VMACount returns the number of checkpointed VMAs.
func (c *Checkpoint) VMACount() int { return c.vmaCount }

// PTLeaves returns the number of checkpointed page-table leaves.
func (c *Checkpoint) PTLeaves() int { return len(c.ptLeaves) }

// VMALeaves returns the number of checkpointed VMA leaves.
func (c *Checkpoint) VMALeaves() int { return len(c.vmaLeaves) }

// Refs returns the reference count.
func (c *Checkpoint) Refs() int { return c.refs.Count() }

// Retain adds a reference.
func (c *Checkpoint) Retain() { c.refs.Retain() }

// Release drops a reference; at zero the arena is reclaimed (along with
// the data frames it owns). Releasing a dead checkpoint is a no-op.
func (c *Checkpoint) Release() {
	if !c.refs.Release() {
		return
	}
	c.arena.Release()
}

// leafFor returns the checkpointed page-table leaf covering va, or nil.
func (c *Checkpoint) leafFor(va pt.VirtAddr) *pt.Leaf {
	base := va.LeafBase()
	lo, hi := 0, len(c.ptLeaves)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.ptLeaves[mid].base < base {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(c.ptLeaves) && c.ptLeaves[lo].base == base {
		return cxl.Get[*pt.Leaf](c.arena, c.ptLeaves[lo].off)
	}
	return nil
}

// PTE returns the checkpointed PTE for va (zero PTE if absent).
func (c *Checkpoint) PTE(va pt.VirtAddr) pt.PTE {
	l := c.leafFor(va)
	if l == nil {
		return pt.PTE{}
	}
	return l.PTEs[int(va.PageNumber())&(pt.EntriesPerTable-1)]
}

// ClearABits clears the Accessed bit on every checkpointed PTE, in
// place on the CXL device — the user-space interface CXLporter uses to
// re-estimate hot pages (§4.3). It returns the number cleared.
func (c *Checkpoint) ClearABits() int {
	n := 0
	for _, ref := range c.ptLeaves {
		l := cxl.Get[*pt.Leaf](c.arena, ref.off)
		for i := range l.PTEs {
			if l.PTEs[i].Present() && l.PTEs[i].Flags.Has(pt.Accessed) {
				l.PTEs[i].Flags &^= pt.Accessed
				n++
			}
		}
	}
	return n
}

// HotPages counts checkpointed pages currently marked Accessed or
// UserHot.
func (c *Checkpoint) HotPages() int {
	n := 0
	for _, ref := range c.ptLeaves {
		l := cxl.Get[*pt.Leaf](c.arena, ref.off)
		for i := range l.PTEs {
			if l.PTEs[i].Present() &&
				(l.PTEs[i].Flags.Has(pt.Accessed) || l.PTEs[i].Flags.Has(pt.UserHot)) {
				n++
			}
		}
	}
	return n
}

// SetUserHot sets the UserHot software bit on the checkpointed PTE for
// va — the interface user-space profilers use to pin pages hot for
// future restores (§4.3). It reports whether va was checkpointed.
func (c *Checkpoint) SetUserHot(va pt.VirtAddr) bool {
	l := c.leafFor(va)
	if l == nil {
		return false
	}
	e := &l.PTEs[int(va.PageNumber())&(pt.EntriesPerTable-1)]
	if !e.Present() {
		return false
	}
	e.Flags |= pt.UserHot
	return true
}

// Mechanism is the CXLfork rfork.Mechanism.
type Mechanism struct {
	// Dev is the CXL device checkpoints are placed on.
	Dev *cxl.Device
	// Faults is the fault-injection plan consulted at step boundaries.
	// May be nil (no faults).
	Faults *faultinject.Plan
	// shardScratch is the reusable lane-shard buffer for the VMA and
	// PTE walks (DESIGN.md §13). Checkpoint and Restore run
	// synchronously on their cluster's engine goroutine and never
	// nest, so one buffer serves both; each call takes it at entry and
	// returns it emptied on every exit path.
	shardScratch []des.Shard
}

// New returns the CXLfork mechanism over the device.
func New(dev *cxl.Device) *Mechanism { return &Mechanism{Dev: dev} }

// Name returns "CXLfork".
func (m *Mechanism) Name() string { return "CXLfork" }

// Checkpoint captures parent into CXL memory (paper §4.1, Fig. 4a):
// private state (task/MM descriptors, page tables, data pages) is
// copied as-is with non-temporal stores and rebased onto device
// offsets; global state (descriptors, mounts, PID namespace) is lightly
// serialized. A and D bits of the parent's page tables are preserved.
func (m *Mechanism) Checkpoint(parent *kernel.Task, id string) (rfork.Image, error) {
	o := parent.OS
	p := &o.P
	node := o.Index
	t0 := o.Eng.Now()
	arena, err := m.Dev.NewArena(id)
	if err != nil {
		o.TraceOpError("checkpoint", t0, "alloc")
		return nil, err
	}
	ck := &Checkpoint{id: id, dev: m.Dev, arena: arena, refs: rfork.NewRefCount()}
	pool := m.Dev.Pool()
	lanes := p.CheckpointLanes
	var cost des.Time // lane-independent serial work
	shards := m.shardScratch[:0]
	defer func() { m.shardScratch = shards[:0] }()

	// Task and MM descriptors (steps 1-3): native memory copies.
	cost += p.StructCopy

	// VMA tree leaves: copied as-is, marked immutable (step 2). Each leaf
	// is one lane shard of pure metadata work (no fabric units).
	if err := m.Faults.At(faultinject.StepCheckpointVMA, node); err != nil {
		return nil, m.checkpointFault(ck, o, t0, cost+m.copyCost(lanes, shards), "vma", err)
	}
	var vmaErr error
	srcVMAs := collectVMALeaves(parent)
	for _, leaf := range srcVMAs {
		ckLeaf := leaf.Clone()
		ckLeaf.InCXL = true
		ckLeaf.Protected = true
		off, err := arena.Alloc(ckLeaf, int64(len(ckLeaf.VMAs))*96)
		if err != nil {
			vmaErr = err
			break
		}
		ck.vmaLeaves = append(ck.vmaLeaves, off)
		ck.vmaCount += len(ckLeaf.VMAs)
		shards = append(shards, des.Shard{Setup: des.Time(len(ckLeaf.VMAs)) * p.VMACheckpoint})
	}
	if vmaErr != nil {
		ck.Release()
		o.TraceOpError("checkpoint", t0, "alloc")
		return nil, vmaErr
	}
	nVMA := len(shards)

	// Page tables and data pages (steps 4-7): copy each leaf, copy each
	// present page into a CXL frame, rewrite the PTE to the device PFN
	// (read-only, CoW), preserving A/D and software bits — the rebase.
	// Each leaf is one lane shard: PTE rebases are lane-local setup, page
	// copies are fabric-stream units. A page whose content already lives
	// on the device dedups against the existing frame: no fabric write,
	// only the (lane-local) content hash. The degradation factor is a
	// function of the current virtual time only, so hoisting it out of
	// the walk charges exactly what the per-page form did.
	if err := m.Faults.At(faultinject.StepCheckpointPT, node); err != nil {
		return nil, m.checkpointFault(ck, o, t0, cost+m.copyCost(lanes, shards), "pt", err)
	}
	pageCost := m.Faults.Scale(p.CXLWritePage)
	var ptErr error
	parent.MM.PT.WalkLeaves(func(base pt.VirtAddr, leaf *pt.Leaf) {
		if ptErr != nil {
			return
		}
		ckLeaf := &pt.Leaf{InCXL: true, Protected: true}
		shard := des.Shard{UnitCost: pageCost}
		for i := range leaf.PTEs {
			e := leaf.PTEs[i]
			if !e.Present() {
				continue
			}
			var src *memsim.Frame
			if e.Flags.Has(pt.OnCXL) {
				// Parent is itself a clone still mapping checkpoint
				// pages; copy CXL→CXL.
				src = pool.Frame(int(e.PFN))
			} else {
				src = o.Mem.Frame(int(e.PFN))
			}
			dst, hit, err := m.Dev.DedupAlloc(src)
			if err != nil {
				ptErr = err
				return
			}
			arena.TrackFrame(dst)
			if hit {
				ck.dedupHits++
				shard.Setup += p.DedupHashPage
			} else {
				m.Dev.WriteBytes += int64(p.PageSize)
				shard.Units++
			}

			keep := e.Flags & (pt.Accessed | pt.Dirty | pt.FileBacked | pt.UserHot)
			ckLeaf.PTEs[i] = pt.PTE{
				Flags: pt.Present | pt.CoW | pt.OnCXL | keep,
				PFN:   int32(dst.PFN()),
			}
			ck.dataPages++
			if e.Flags.Has(pt.Dirty) {
				ck.dirtyPages++
			}
			if e.Flags.Has(pt.FileBacked) {
				ck.filePages++
			}
			shard.Setup += p.PTERebase
		}
		off, err := arena.Alloc(ckLeaf, int64(p.PageSize))
		if err != nil {
			ptErr = err
			return
		}
		ck.ptLeaves = append(ck.ptLeaves, ptLeafRef{base: base, off: off})
		shards = append(shards, shard)
	})
	if ptErr != nil {
		ck.Release()
		o.TraceOpError("checkpoint", t0, "alloc")
		return nil, ptErr
	}
	obs, laneSpans := o.Trace.CollectShards()
	obs = o.LaneObs(shards, obs)
	copyDur := m.copyCostObs(lanes, shards, obs)
	cost += copyDur

	// Global state (step 8): light serialization of paths, permissions,
	// mounts, PID namespace, and the register file, wrapped in a
	// checksummed envelope so Restore can detect corruption before it
	// mutates the child.
	if err := m.Faults.At(faultinject.StepCheckpointGlobal, node); err != nil {
		return nil, m.checkpointFault(ck, o, t0, cost, "global", err)
	}
	gs := rfork.CaptureGlobalState(parent)
	blob := wire.SealEnvelope(gs.Encode())
	m.Faults.Corrupt(faultinject.StepCheckpointGlobal, node, id, blob)
	off, err := arena.Alloc(blob, int64(len(blob)))
	if err != nil {
		ck.Release()
		o.TraceOpError("checkpoint", t0, "alloc")
		return nil, err
	}
	ck.globalOff = off
	globalCost := des.Time(len(gs.FDs))*p.FDSerialize + p.StructCopy // FDs + mounts + pidns records
	cost += globalCost

	// Publication commit: the arena becomes visible to Restore only now.
	// Everything before this point is recoverable staging.
	if err := arena.Seal(); err != nil {
		ck.Release()
		o.TraceOpError("checkpoint", t0, "seal")
		return nil, err
	}
	o.Eng.Advance(cost)
	if o.Trace.Enabled() {
		opID := o.Trace.Emit(trace.None, node, trace.TrackOps, trace.CatOp, "checkpoint",
			t0, cost, ck.CXLBytes(), ck.dataPages)
		pos := t0
		o.Trace.Emit(opID, node, trace.TrackOps, trace.CatPhase, "struct-copy", pos, p.StructCopy, 0, 0)
		pos += p.StructCopy
		copiedBytes := int64(ck.dataPages-ck.dedupHits) * int64(p.PageSize)
		copyID := o.Trace.Emit(opID, node, trace.TrackOps, trace.CatPhase, "copy", pos, copyDur,
			copiedBytes, ck.dataPages)
		o.Trace.EmitShards(copyID, node, pos, laneSpans,
			func(i int) string {
				if i < nVMA {
					return "vma-leaf"
				}
				return "pt-leaf"
			},
			func(i int) int { return shards[i].Units })
		pos += copyDur
		o.Trace.Emit(opID, node, trace.TrackOps, trace.CatPhase, "global-serialize", pos, globalCost,
			int64(len(blob)), 0)
	}
	return ck, nil
}

// copyCost folds accumulated pipeline shards into virtual time. One
// lane charges the exact serial sum — byte-identical to the historical
// sequential accounting (see des.Makespan's contract and its tests).
// Multiple lanes run the lane/fabric-stream contention model on the
// device's private engine.
func (m *Mechanism) copyCost(lanes int, shards []des.Shard) des.Time {
	return m.copyCostObs(lanes, shards, nil)
}

// copyCostObs is copyCost with a shard observer; a nil observer is
// byte-identical to copyCost.
func (m *Mechanism) copyCostObs(lanes int, shards []des.Shard, obs des.ShardObserver) des.Time {
	if lanes <= 1 {
		return des.PipelineTimeObs(1, 1, 0, shards, obs)
	}
	return m.Dev.CopyMakespanObs(lanes, shards, obs)
}

// checkpointFault finishes a Checkpoint interrupted by an injected
// fault. A node crash leaves the staged arena torn on the device (the
// dead node cannot roll back; Device.Recover garbage-collects it) and
// still charges the virtual-time cost accrued before the crash — that
// work happened. Any other fault (transient device-full) rolls the
// staging back so occupancy is exactly what it was, matching the real
// device-full paths. Either way the aborted operation is traced with
// the step that failed.
func (m *Mechanism) checkpointFault(ck *Checkpoint, o *kernel.OS, t0, cost des.Time, step string, cause error) error {
	if errors.Is(cause, rfork.ErrNodeDown) {
		o.Eng.Advance(cost)
	} else {
		ck.Release()
	}
	o.TraceOpError("checkpoint", t0, step)
	return cause
}

// collectVMALeaves snapshots the parent's VMA tree as leaves of at most
// vma.LeafCap entries, in address order.
func collectVMALeaves(parent *kernel.Task) []*vma.Leaf {
	var leaves []*vma.Leaf
	cur := &vma.Leaf{}
	parent.MM.VMAs.Walk(func(v vma.VMA) {
		cur.VMAs = append(cur.VMAs, v)
		if len(cur.VMAs) == vma.LeafCap {
			leaves = append(leaves, cur)
			cur = &vma.Leaf{}
		}
	})
	if len(cur.VMAs) > 0 {
		leaves = append(leaves, cur)
	}
	return leaves
}

// globalState verifies and decodes the checkpoint's global-state blob.
// A checksum or decode failure surfaces as rfork.ErrImageCorrupt.
func (c *Checkpoint) globalState() (rfork.GlobalState, error) {
	blob := cxl.Get[[]byte](c.arena, c.globalOff)
	payload, err := wire.OpenEnvelope(blob)
	if err != nil {
		return rfork.GlobalState{}, fmt.Errorf("core: global state in %s: %w: %v", c.id, rfork.ErrImageCorrupt, err)
	}
	gs, err := rfork.DecodeGlobalState(payload)
	if err != nil {
		return gs, fmt.Errorf("core: global state in %s: %w: %v", c.id, rfork.ErrImageCorrupt, err)
	}
	return gs, nil
}
