package cxl

import (
	"fmt"

	"cxlfork/internal/des"
	"cxlfork/internal/memsim"
)

// Content-addressed frame dedup cache.
//
// Serverless parents are overwhelmingly alike: every warm instance of a
// function holds the same library text, the same interpreter heap, and
// large runs of zeroed pages. Checkpointing each instance as if its
// pages were unique wastes both device capacity and fabric write
// bandwidth. The device therefore keeps an index from page-content hash
// (FNV-1a over the content token) to live frames already holding that
// content; a checkpoint page write that hits the index takes an extra
// reference on the existing frame instead of allocating and NT-storing
// a new one.
//
// Index entries are validated lazily on lookup: an entry is only usable
// while its frame is still live (refs > 0), still the same allocation
// (CacheKey embeds the per-allocation generation, so a freed-and-reused
// frame never aliases), and still holds the hashed content. Stale
// entries are dropped in place, so the index needs no teardown hooks in
// Arena.Release or Recover.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1aToken hashes the 8-byte page content token with FNV-1a.
func fnv1aToken(tok uint64) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < 8; i++ {
		h ^= (tok >> (8 * i)) & 0xff
		h *= fnvPrime64
	}
	return h
}

// dedupEntry records one indexed frame. key is the frame's CacheKey at
// registration time: if the frame has since been freed and reallocated,
// the key no longer matches and the entry is stale.
type dedupEntry struct {
	key   uint64
	token uint64
	frame *memsim.Frame
}

// DedupAlloc returns a device frame holding src's contents: either an
// existing live frame with identical content (hit — one extra reference
// is taken, no data moves on the fabric) or a freshly allocated copy
// (miss). The boolean reports a hit. The caller owns one reference
// either way and normally hands it to an Arena via TrackFrame.
func (d *Device) DedupAlloc(src *memsim.Frame) (*memsim.Frame, bool, error) {
	return d.AllocToken(src.Data)
}

// AllocToken is DedupAlloc addressed by content token instead of source
// frame: it returns a device frame holding tok, deduped against the
// index when an identical live frame exists. Checkpoint replays (the
// capacity manager's re-publish path) use it to rebuild an evicted
// image's frames from a recorded token list — re-deduping against any
// surviving twins — without a live parent address space to copy from.
func (d *Device) AllocToken(tok uint64) (*memsim.Frame, bool, error) {
	if d.failed {
		return nil, false, fmt.Errorf("%w: %s", ErrDeviceFailed, d.name)
	}
	h := fnv1aToken(tok)
	entries := d.dedup[h]
	live := entries[:0]
	var hit *memsim.Frame
	for _, e := range entries {
		if e.frame.Refs() <= 0 || e.frame.CacheKey() != e.key || e.frame.Data != e.token {
			continue // stale: frame freed, reused, or rewritten
		}
		live = append(live, e)
		if hit == nil && e.token == tok {
			hit = e.frame
		}
	}
	if hit != nil {
		d.dedup[h] = live
		d.Dedup.Hits.Inc()
		d.Dedup.BytesSaved.Add(int64(d.p.PageSize))
		return hit.Get(), true, nil
	}
	f, err := d.pool.Alloc()
	if err != nil {
		if len(live) != len(entries) {
			d.dedup[h] = live
		}
		return nil, false, err
	}
	f.Data = tok
	d.dedup[h] = append(live, dedupEntry{key: f.CacheKey(), token: f.Data, frame: f})
	d.Dedup.Misses.Inc()
	return f, false, nil
}

// DedupIndexLen reports the number of index buckets (diagnostics).
func (d *Device) DedupIndexLen() int { return len(d.dedup) }

// CopyMakespanObs computes the virtual duration of a lane-parallel
// copy pipeline whose unit copies contend on the device's fabric
// streams, reporting each shard to obs (see des.ShardObserver). A nil
// observer is byte-identical to des.Makespan.
func (d *Device) CopyMakespanObs(lanes int, shards []des.Shard, obs des.ShardObserver) des.Time {
	return des.MakespanObs(lanes, d.p.FabricStreams, d.p.LaneDispatch, shards, obs)
}
