package cxl

import "cxlfork/internal/memsim"

// Per-image exclusive vs. shared frame accounting.
//
// The content-addressed dedup index (dedup.go) lets several checkpoint
// arenas reference the same data frame, so an image's declared footprint
// (frames tracked × page size) is not what the device gets back when the
// image is released: shared frames merely drop a reference and stay
// resident for their other owners. The capacity manager's eviction
// targets must be truthful, so the split is computed here from the frame
// refcounts themselves: a frame is exclusive to an arena exactly when
// every live reference on it is held by that arena, and only exclusive
// frames (plus the arena's metadata) come back on Release.

// Occupancy is one arena's byte breakdown on the device.
type Occupancy struct {
	// Meta is arena metadata: checkpointed OS structures (page-table
	// leaves, VMA leaves, serialized global state). Always exclusive.
	Meta int64
	// ExclusiveFrames is bytes of distinct data frames referenced only by
	// this arena — the frame capacity releasing the arena frees.
	ExclusiveFrames int64
	// SharedFrames is bytes of distinct data frames this arena shares
	// with other live owners (dedup twins); releasing the arena only
	// drops references on them.
	SharedFrames int64
}

// Reclaimable is the device occupancy delta releasing the arena would
// produce right now: metadata plus exclusive frames.
func (o Occupancy) Reclaimable() int64 { return o.Meta + o.ExclusiveFrames }

// Total is the arena's distinct device footprint: metadata plus every
// distinct frame it references, shared or not. It can exceed
// Reclaimable when frames are dedup-shared.
func (o Occupancy) Total() int64 { return o.Meta + o.ExclusiveFrames + o.SharedFrames }

// Occupancy computes the arena's exclusive/shared byte breakdown. A
// frame tracked several times by the same arena (one image mapping the
// same content at several addresses) counts once; it is exclusive when
// the arena holds all of its references. A released arena reports zero.
func (a *Arena) Occupancy() Occupancy {
	if a.closed {
		return Occupancy{}
	}
	o := Occupancy{Meta: a.bytes}
	held := make(map[*memsim.Frame]int, len(a.frames))
	for _, f := range a.frames {
		held[f]++
	}
	ps := int64(a.dev.p.PageSize)
	for f, n := range held {
		if f.Refs() == n {
			o.ExclusiveFrames += ps
		} else {
			o.SharedFrames += ps
		}
	}
	return o
}

// ExclusiveBytes returns the bytes releasing the arena would actually
// free right now: metadata plus frames no other owner references.
func (a *Arena) ExclusiveBytes() int64 { return a.Occupancy().Reclaimable() }

// SharedBytes returns bytes of distinct frames this arena shares with
// other live owners.
func (a *Arena) SharedBytes() int64 { return a.Occupancy().SharedFrames }

// DeviceOccupancy aggregates arena occupancy across the whole device.
type DeviceOccupancy struct {
	// Arenas is the number of live checkpoint arenas.
	Arenas int
	// Meta is total arena metadata bytes.
	Meta int64
	// ExclusiveFrames sums per-arena exclusive frame bytes: capacity that
	// would come back if its single owner were released.
	ExclusiveFrames int64
	// SharedFrames is bytes of distinct frames referenced by more than
	// one owner, each counted once device-wide.
	SharedFrames int64
}

// Total is the device capacity the live arenas account for. It equals
// Device.UsedBytes when every pool frame is arena-owned (the invariant
// the test harness enforces).
func (o DeviceOccupancy) Total() int64 { return o.Meta + o.ExclusiveFrames + o.SharedFrames }

// occEntry is one distinct frame tracked on the device: how many
// references the device's arenas hold on it, and the one arena holding
// them all (nil once a second arena tracks the frame).
type occEntry struct {
	frame *memsim.Frame
	held  int
	owner *Arena
}

// occIndex is the device's cached frame-ownership index. The arena
// set and the frames it tracks change only through NewArena,
// TrackFrame and Release, each of which bumps Device.epoch; a frame's
// live reference count also changes through clone Get/Put, so
// Occupancy reads it at every call rather than caching it. The zero
// index is current for a fresh device: epoch 0, nothing tracked.
type occIndex struct {
	epoch   uint64 // Device.epoch the entries were built at
	entries []occEntry
	pos     map[*memsim.Frame]int // frame → index in entries (build scratch)
}

// rebuild re-derives the distinct tracked frames from the live arenas,
// reusing the previous build's storage.
func (x *occIndex) rebuild(d *Device) {
	x.entries = x.entries[:0]
	if x.pos == nil {
		n := 0
		for _, a := range d.arenas {
			n += len(a.frames)
		}
		x.pos = make(map[*memsim.Frame]int, n)
	}
	clear(x.pos)
	for _, a := range d.arenas {
		for _, f := range a.frames {
			i, ok := x.pos[f]
			if !ok {
				x.pos[f] = len(x.entries)
				x.entries = append(x.entries, occEntry{frame: f, held: 1, owner: a})
				continue
			}
			e := &x.entries[i]
			e.held++
			if e.owner != a {
				e.owner = nil
			}
		}
	}
	x.epoch = d.epoch
}

// Occupancy summarizes the device's live arenas: how much of the
// occupied capacity each image could give back versus how much is
// dedup-shared. For workloads whose device frames are all arena-owned
// (the invariant the test harness enforces), Meta + ExclusiveFrames +
// SharedFrames equals UsedBytes.
//
// A frame is exclusive when a single arena owns every live reference
// on it; every other tracked frame is shared and counts once. The
// distinct-frame index is rebuilt only after the arena set changed
// (see occIndex); between such changes a call is one allocation-free
// pass over the distinct frames.
func (d *Device) Occupancy() DeviceOccupancy {
	out := DeviceOccupancy{Arenas: len(d.arenas)}
	for _, a := range d.arenas {
		out.Meta += a.bytes
	}
	if d.occ.epoch != d.epoch {
		d.occ.rebuild(d)
	}
	ps := int64(d.p.PageSize)
	for _, e := range d.occ.entries {
		if e.owner != nil && e.frame.Refs() == e.held {
			out.ExclusiveFrames += ps
		} else {
			out.SharedFrames += ps
		}
	}
	return out
}
