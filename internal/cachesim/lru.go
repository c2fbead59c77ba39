package cachesim

// Line identifies a cached unit: for PageLRU callers use the physical
// frame key (caches are physically indexed, so sharers hit on each
// other's lines); any uint64 key works.
type Line = uint64

// node is one entry in the intrusive LRU list. Entries live in a
// preallocated arena so steady-state operation performs no allocation.
type node struct {
	key        Line
	prev, next int32
}

const nilIdx = -1

// bucket is one slot of the open-addressing index from a resident key
// to its node. slot holds the node index plus one, so zero marks an
// empty bucket and key 0 stays a legal key.
type bucket struct {
	key  Line
	slot int32
}

// PageLRU is an exact-LRU fully-associative cache tracked at page
// granularity.
//
// Residency is indexed by a flat linear-probing table instead of a Go
// map: the table is a power of two at least twice the capacity, so
// probes stay short, deletion shifts displaced entries back rather than
// leaving tombstones, and Reset clears it in place.
type PageLRU struct {
	capacity int
	nodes    []node
	head     int32 // MRU
	tail     int32 // LRU
	free     []int32
	index    []bucket
	shift    uint // 64 - log2(len(index)): hash bits to keep
	resident int

	Hits   int64
	Misses int64
}

// NewPageLRU returns a cache holding capacityPages pages.
func NewPageLRU(capacityPages int) *PageLRU {
	if capacityPages <= 0 {
		panic("cachesim: capacity must be positive")
	}
	bits := uint(1)
	for 1<<bits < 2*capacityPages {
		bits++
	}
	return &PageLRU{
		capacity: capacityPages,
		head:     nilIdx,
		tail:     nilIdx,
		index:    make([]bucket, 1<<bits),
		shift:    64 - bits,
	}
}

// Capacity returns the capacity in pages.
func (c *PageLRU) Capacity() int { return c.capacity }

// Len returns the number of resident pages.
func (c *PageLRU) Len() int { return c.resident }

// home returns key's preferred bucket: Fibonacci hashing keeps the top
// bits of the product, which every key bit feeds.
func (c *PageLRU) home(key Line) int {
	return int((key * 0x9e3779b97f4a7c15) >> c.shift)
}

// find returns the bucket holding key, or the empty bucket where the
// probe for it ends.
func (c *PageLRU) find(key Line) int {
	mask := len(c.index) - 1
	i := c.home(key)
	for c.index[i].slot != 0 && c.index[i].key != key {
		i = (i + 1) & mask
	}
	return i
}

// remove empties bucket i, shifting later members of its probe run back
// so every remaining key stays reachable from its home bucket. It
// returns the bucket left empty, the only one the removal frees.
func (c *PageLRU) remove(i int) int {
	mask := len(c.index) - 1
	j := i
	for {
		j = (j + 1) & mask
		if c.index[j].slot == 0 {
			break
		}
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j]: moving it before its home would hide it.
		if h := c.home(c.index[j].key); (j-h)&mask >= (j-i)&mask {
			c.index[i] = c.index[j]
			i = j
		}
	}
	c.index[i] = bucket{}
	c.resident--
	return i
}

func (c *PageLRU) unlink(i int32) {
	n := &c.nodes[i]
	if n.prev != nilIdx {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nilIdx {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
}

func (c *PageLRU) pushFront(i int32) {
	n := &c.nodes[i]
	n.prev = nilIdx
	n.next = c.head
	if c.head != nilIdx {
		c.nodes[c.head].prev = i
	}
	c.head = i
	if c.tail == nilIdx {
		c.tail = i
	}
}

// Access touches key, returning true on hit. On miss the key is
// installed, evicting the LRU page if the cache is full.
func (c *PageLRU) Access(key Line) bool {
	b := c.find(key)
	if s := c.index[b].slot; s != 0 {
		i := s - 1
		if c.head != i {
			c.unlink(i)
			c.pushFront(i)
		}
		c.Hits++
		return true
	}
	c.Misses++
	var i int32
	switch {
	case c.resident >= c.capacity:
		// Reuse the LRU slot. The shift stops at the empty bucket b,
		// so b stays empty; but if the hole it leaves lies between
		// key's home and b, key belongs in the hole instead.
		i = c.tail
		c.unlink(i)
		hole := c.remove(c.find(c.nodes[i].key))
		mask := len(c.index) - 1
		if h := c.home(key); (hole-h)&mask < (b-h)&mask {
			b = hole
		}
	case len(c.free) > 0:
		i = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
	default:
		c.nodes = append(c.nodes, node{})
		i = int32(len(c.nodes) - 1)
	}
	c.nodes[i].key = key
	c.pushFront(i)
	c.index[b] = bucket{key: key, slot: i + 1}
	c.resident++
	return false
}

// Contains reports residency without touching recency or counters.
func (c *PageLRU) Contains(key Line) bool {
	return c.index[c.find(key)].slot != 0
}

// Invalidate removes key if resident (page migration, frame free).
func (c *PageLRU) Invalidate(key Line) {
	b := c.find(key)
	if s := c.index[b].slot; s != 0 {
		c.unlink(s - 1)
		c.remove(b)
		c.free = append(c.free, s-1)
	}
}

// Reset empties the cache and clears counters.
func (c *PageLRU) Reset() {
	c.nodes = c.nodes[:0]
	c.free = c.free[:0]
	c.head, c.tail = nilIdx, nilIdx
	clear(c.index)
	c.resident = 0
	c.Hits, c.Misses = 0, 0
}

// Key packs an address-space id and page number into a cache key. The
// TLB (virtually indexed) uses this; the LLC is keyed by physical frame
// identity instead.
func Key(space uint32, page uint64) Line {
	return uint64(space)<<32 | (page & 0xffffffff)
}
