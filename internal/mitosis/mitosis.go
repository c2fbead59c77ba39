package mitosis

import (
	"fmt"

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

// shadowPage is one page of the shadow copy.
type shadowPage struct {
	frame *memsim.Frame
	file  bool
}

// Image is a Mitosis checkpoint: a shadow copy coupled to the parent
// node (its central design constraint — the parent node must stay alive
// and is a point of congestion, §3.1).
type Image struct {
	id       string
	parentOS *kernel.OS

	shadow   map[uint64]shadowPage // keyed by virtual page number
	osState  []byte                // enveloped wire-encoded VMAs + global state
	vmaCount int
	pteCount int

	refs rfork.RefCount
}

var _ rfork.Image = (*Image)(nil)

// ID returns the checkpoint ID.
func (im *Image) ID() string { return im.id }

// Mechanism returns "Mitosis-CXL".
func (im *Image) Mechanism() string { return "Mitosis-CXL" }

// CXLBytes is zero: Mitosis keeps the checkpoint in the parent node.
func (im *Image) CXLBytes() int64 { return 0 }

// LocalBytes returns the parent-node memory the shadow copy occupies.
func (im *Image) LocalBytes() int64 {
	return int64(len(im.shadow)) * int64(im.parentOS.P.PageSize)
}

// Pages returns the shadow page count.
func (im *Image) Pages() int { return len(im.shadow) }

// Refs returns the reference count.
func (im *Image) Refs() int { return im.refs.Count() }

// Retain adds a reference.
func (im *Image) Retain() { im.refs.Retain() }

// Release drops a reference; at zero the shadow copy is freed. Releasing
// a dead image is a no-op.
func (im *Image) Release() {
	if !im.refs.Release() {
		return
	}
	for _, sp := range im.shadow {
		im.parentOS.Mem.Put(sp.frame)
	}
	im.shadow = nil
}

// Mechanism is the Mitosis-CXL rfork.Mechanism.
type Mechanism struct {
	// Faults is the fault-injection plan consulted at step boundaries.
	// May be nil (no faults).
	Faults *faultinject.Plan
}

// New returns the Mitosis-CXL mechanism.
func New() *Mechanism { return &Mechanism{} }

// Name returns "Mitosis-CXL".
func (m *Mechanism) Name() string { return "Mitosis-CXL" }

// Image message field tags.
const (
	fieldVMA    = 1
	fieldGlobal = 2
	fieldPTEs   = 3
)

// shadowShard is the page granularity one worker lane claims at a time
// when building or transferring shadow state.
const shadowShard = 128

// Checkpoint creates the shadow copy in parent-node local memory and
// serializes the OS state.
func (m *Mechanism) Checkpoint(parent *kernel.Task, id string) (rfork.Image, error) {
	o := parent.OS
	p := &o.P
	t0 := o.Eng.Now()
	if err := m.Faults.At(faultinject.StepCheckpointVMA, o.Index); err != nil {
		o.TraceOpError("checkpoint", t0, "vma")
		return nil, err
	}
	im := &Image{id: id, parentOS: o, shadow: make(map[uint64]shadowPage), refs: rfork.NewRefCount()}
	var cost des.Time

	// Serialize the address-space layout and global state.
	enc := wire.NewEncoder()
	parent.MM.VMAs.Walk(func(v vma.VMA) {
		enc.PutBytes(fieldVMA, rfork.EncodeVMA(v))
		im.vmaCount++
		cost += p.VMACheckpoint
	})
	gs := rfork.CaptureGlobalState(parent)
	enc.PutBytes(fieldGlobal, gs.Encode())
	cost += des.Time(len(gs.FDs)) * p.FDSerialize
	cost += p.StructCopy

	// Shadow-copy every present page into parent-local memory, and
	// serialize the page-table metadata.
	var cpErr error
	parent.MM.PT.Walk(func(va pt.VirtAddr, leaf *pt.Leaf, i int) {
		if cpErr != nil {
			return
		}
		e := leaf.PTEs[i]
		var src *memsim.Frame
		if e.Flags.Has(pt.OnCXL) {
			src = o.Dev.Pool().Frame(int(e.PFN))
		} else {
			src = o.Mem.Frame(int(e.PFN))
		}
		dst, err := o.Mem.Alloc()
		if err != nil {
			cpErr = err
			return
		}
		memsim.Copy(dst, src)
		im.shadow[va.PageNumber()] = shadowPage{frame: dst, file: e.Flags.Has(pt.FileBacked)}
		im.pteCount++
	})
	if cpErr != nil {
		im.Release()
		o.TraceOpError("checkpoint", t0, "alloc")
		return nil, cpErr
	}
	// The shadow copy runs on the checkpoint lanes. It is a DRAM→DRAM
	// copy, so lanes contend on the node's memory-controller streams
	// (wider than the CXL fabric), with the PTE serialization as
	// lane-local work. One lane charges the exact serial per-page sum.
	serCost := cost
	shards := des.UniformShards(im.pteCount, shadowShard, p.PTECopy, p.LocalCopyPage)
	obs, laneSpans := o.Trace.CollectShards()
	obs = o.LaneObs(shards, obs)
	pipeDur := des.PipelineTimeObs(p.CheckpointLanes, p.LocalCopyStreams, p.LaneDispatch, shards, obs)
	cost += pipeDur
	enc.PutUint(fieldPTEs, uint64(im.pteCount))
	// The OS-state record travels in a checksummed envelope so Restore
	// can reject corruption before touching the child.
	im.osState = wire.SealEnvelope(enc.Bytes())
	m.Faults.Corrupt(faultinject.StepCheckpointGlobal, o.Index, id, im.osState)

	o.Eng.Advance(cost)
	if o.Trace.Enabled() {
		node := o.Index
		opID := o.Trace.Emit(trace.None, node, trace.TrackOps, trace.CatOp, "checkpoint",
			t0, cost, im.LocalBytes(), im.pteCount)
		o.Trace.Emit(opID, node, trace.TrackOps, trace.CatPhase, "serialize", t0, serCost, 0, 0)
		copyID := o.Trace.Emit(opID, node, trace.TrackOps, trace.CatPhase, "shadow-copy",
			t0+serCost, pipeDur, im.LocalBytes(), im.pteCount)
		o.Trace.EmitShards(copyID, node, t0+serCost, laneSpans,
			func(int) string { return "page-batch" },
			func(i int) int { return shards[i].Units })
	}
	return im, nil
}

// Restore deserializes the OS state on the child's node — rebuilding the
// VMA tree and transferring the parent's page tables — and installs the
// remote-paging overlay. No page data moves at restore time.
func (m *Mechanism) Restore(child *kernel.Task, img rfork.Image, _ rfork.Options) error {
	im, ok := img.(*Image)
	if !ok {
		return fmt.Errorf("mitosis: image %s is %T, not a Mitosis image", img.ID(), img)
	}
	o := child.OS
	p := &o.P
	t0 := o.Eng.Now()
	fail := func(step string, err error) error {
		o.TraceOpError("restore", t0, step)
		return err
	}
	if err := m.Faults.At(faultinject.StepRestoreAttach, o.Index); err != nil {
		return fail("attach", err)
	}
	if im.refs.Count() <= 0 {
		return fail("validate", fmt.Errorf("mitosis: restore from reclaimed image %s", im.id))
	}
	// Mitosis' central constraint (§3.1): the checkpoint lives in the
	// parent node's memory, so a dead parent makes the image unusable.
	if m.Faults.NodeDown(im.parentOS.Index) {
		return fail("parent-down", fmt.Errorf("mitosis: image %s: parent node %d: %w", im.id, im.parentOS.Index, rfork.ErrNodeDown))
	}

	// Validate and fully decode the OS state before mutating the child.
	blob, err := wire.OpenEnvelope(im.osState)
	if err != nil {
		return fail("validate", fmt.Errorf("mitosis: image %s: %w: %v", im.id, rfork.ErrImageCorrupt, err))
	}
	var cost des.Time
	var gs rfork.GlobalState
	var haveGS bool
	var vmas []vma.VMA
	var pteN int
	d := wire.NewDecoder(blob)
	for d.More() {
		field, wt, err := d.Next()
		if err != nil {
			return fail("decode", fmt.Errorf("mitosis: image %s: %w: %v", im.id, rfork.ErrImageCorrupt, err))
		}
		switch field {
		case fieldVMA:
			b, err := d.Bytes()
			if err != nil {
				return fail("decode", fmt.Errorf("mitosis: image %s: %w: %v", im.id, rfork.ErrImageCorrupt, err))
			}
			v, err := rfork.DecodeVMA(b)
			if err != nil {
				return fail("decode", fmt.Errorf("mitosis: image %s: %w: %v", im.id, rfork.ErrImageCorrupt, err))
			}
			vmas = append(vmas, v) // reconstruct cost folded into the lane pipeline below
		case fieldGlobal:
			b, err := d.Bytes()
			if err != nil {
				return fail("decode", fmt.Errorf("mitosis: image %s: %w: %v", im.id, rfork.ErrImageCorrupt, err))
			}
			gs, err = rfork.DecodeGlobalState(b)
			if err != nil {
				return fail("decode", fmt.Errorf("mitosis: image %s: %w: %v", im.id, rfork.ErrImageCorrupt, err))
			}
			haveGS = true
		case fieldPTEs:
			n, err := d.Uint()
			if err != nil {
				return fail("decode", fmt.Errorf("mitosis: image %s: %w: %v", im.id, rfork.ErrImageCorrupt, err))
			}
			pteN = int(n)
		default:
			if err := d.Skip(wt); err != nil {
				return fail("decode", fmt.Errorf("mitosis: image %s: %w: %v", im.id, rfork.ErrImageCorrupt, err))
			}
		}
	}
	if !haveGS {
		return fail("decode", fmt.Errorf("mitosis: image %s has no global state: %w", im.id, rfork.ErrImageCorrupt))
	}
	for _, v := range vmas {
		if _, err := child.MM.VMAs.Insert(v); err != nil {
			return fail("attach", err)
		}
	}
	// VMA reconstruction and the page-table transfer/deserialization run
	// on the restore lanes; the PTE stream crosses the fabric from the
	// parent node, so it contends on the fabric streams.
	shards := make([]des.Shard, 0, len(vmas))
	for range vmas {
		shards = append(shards, des.Shard{Setup: p.VMAReconstruct})
	}
	shards = append(shards, des.UniformShards(pteN, pt.EntriesPerTable, 0, p.PTEDeserialize)...)
	obs, laneSpans := o.Trace.CollectShards()
	obs = o.LaneObs(shards, obs)
	pipeDur := des.PipelineTimeObs(p.RestoreLanes, p.FabricStreams, p.LaneDispatch, shards, obs)
	cost += pipeDur
	o.Eng.Advance(cost)
	gBegin := o.Eng.Now()
	if err := rfork.RestoreGlobalState(child, gs); err != nil {
		return fail("global", err)
	}
	gEnd := o.Eng.Now()

	child.MM.Overlay = &overlay{im: im}
	im.Retain()
	child.MM.OnExit(im.Release)
	if o.Trace.Enabled() {
		node := o.Index
		opID := o.Trace.Emit(trace.None, node, trace.TrackOps, trace.CatOp, "restore",
			t0, gEnd-t0, 0, pteN)
		deserID := o.Trace.Emit(opID, node, trace.TrackOps, trace.CatPhase, "deserialize",
			t0, gBegin-t0, 0, pteN)
		o.Trace.EmitShards(deserID, node, t0+(gBegin-t0-pipeDur), laneSpans,
			func(i int) string {
				if i < len(vmas) {
					return "vma-record"
				}
				return "pte-batch"
			},
			func(i int) int { return shards[i].Units })
		o.Trace.Emit(opID, node, trace.TrackOps, trace.CatPhase, "global-restore", gBegin, gEnd-gBegin, 0, 0)
	}
	return nil
}

// overlay implements Mitosis' lazy remote paging: the first access to
// any page copies it from the parent's shadow into child-local memory
// over the CXL fabric.
type overlay struct {
	im *Image
}

// Fault copies the page at va from the shadow copy. The cost models the
// parent-side store to CXL plus the child-side fetch (§6.2).
func (ov *overlay) Fault(mm *kernel.MM, va pt.VirtAddr, write bool) (pt.PTE, des.Time, kernel.FaultKind, bool) {
	sp, ok := ov.im.shadow[va.PageNumber()]
	if !ok {
		return pt.PTE{}, 0, 0, false
	}
	o := mm.OS
	p := &o.P
	local, err := o.Mem.Alloc()
	if err != nil {
		return pt.PTE{}, 0, 0, false // OOM surfaces as a segfault upstream
	}
	memsim.Copy(local, sp.frame)
	o.Dev.WriteBytes += int64(p.PageSize)
	o.Dev.ReadBytes += int64(p.PageSize)

	flags := pt.Accessed
	if sp.file {
		flags |= pt.FileBacked
	}
	if v := mm.VMAs.Find(va); v != nil && v.Prot&vma.Write != 0 {
		flags |= pt.Writable
	}
	if write {
		flags |= pt.Dirty
		local.Data = memsim.NewToken()
	}
	cost := p.FaultEntry + p.CXLWritePage + p.CXLReadPage
	return pt.PTE{Flags: pt.Present | flags, PFN: int32(local.PFN())}, cost, kernel.FaultMoA, true
}
