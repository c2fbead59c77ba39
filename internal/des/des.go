package des

import "fmt"

// Time is a virtual timestamp in nanoseconds since simulation start.
type Time int64

// Common durations, mirroring time.Duration style but for virtual time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
)

// String renders a Time with an adaptive unit, for experiment output.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds converts a virtual time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts a virtual time to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis converts a virtual time to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// slot holds a scheduled event's callback outside the heap. Slots are
// pooled: once dispatched (or popped dead) a slot returns to the
// owning engine's free list and its generation counter advances, so
// stale EventIDs cannot touch the recycled slot.
type slot struct {
	fn   func()
	gen  uint32 // recycle generation; guards Cancel after reuse
	dead bool
}

// qent is one heap entry: a plain value, so sifting moves 24 bytes and
// never chases a pointer.
type qent struct {
	at   Time
	seq  uint64 // insertion order; tie-breaker for determinism
	slot int32
}

// before is the dispatch order: timestamp, then insertion sequence.
// Sequence numbers are unique, so the order is total.
func (a qent) before(b qent) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// EventID identifies a scheduled event so it can be cancelled: the
// slot it occupies (offset by one, so the zero EventID names no event)
// and that slot's generation at scheduling time. The generation makes
// an ID single-use: after the event fires and its slot is recycled for
// a later schedule, the stale ID no longer matches and Cancel is a
// no-op. An ID is only valid on the engine that issued it.
type EventID struct {
	ref int32
	gen uint32
}

// stream is the engine's lazy arrival feed (see Engine.Stream): n
// pre-sorted events whose ranks were reserved as the seq block
// [seq0, seq0+n) when the stream was opened.
type stream struct {
	at   func(int) Time
	fn   func(int)
	n    int
	next int    // index of the head event; n when drained
	head Time   // at(next), cached
	seq0 uint64 // seq of event 0
}

// key is the head event's heap ordering key.
func (s *stream) key() qent { return qent{at: s.head, seq: s.seq0 + uint64(s.next)} }

// Engine is a single-threaded virtual clock plus event queue: a 4-ary
// min-heap of (at, seq, slot) values, a slot table of callbacks, and
// an optional arrival stream merged with the heap at dispatch.
// It is not safe for concurrent use; simulations run on one goroutine.
// A ShardedEngine owns one Engine per shard and drives them under epoch
// barriers (DESIGN.md §13); each shard engine is still only ever touched
// by one goroutine at a time.
type Engine struct {
	now      Time
	seq      uint64
	heap     []qent
	slots    []slot
	free     []int32 // recycled slot indexes; hot path is alloc-free
	live     int     // scheduled heap events not yet fired or cancelled
	arr      stream
	executed uint64
	stopped  bool
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Advance moves the clock forward by d. It panics on negative d, which
// always indicates an accounting bug.
func (e *Engine) Advance(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("des: negative advance %d", d))
	}
	e.now += d
}

// At schedules fn to run at absolute time t (>= Now).
func (e *Engine) At(t Time, fn func()) EventID {
	if t < e.now {
		panic(fmt.Sprintf("des: schedule in the past: %v < now %v", t, e.now))
	}
	i := e.alloc()
	e.slots[i].fn = fn
	e.push(qent{at: t, seq: e.seq, slot: i})
	e.seq++
	e.live++
	return EventID{ref: i + 1, gen: e.slots[i].gen}
}

// alloc takes a slot from the free list, or grows the table when the
// pool is dry (cold start, or a new high-water mark of pending events).
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		i := e.free[n-1]
		e.free = e.free[:n-1]
		return i
	}
	e.slots = append(e.slots, slot{})
	return int32(len(e.slots) - 1)
}

// recycle returns a popped event's slot to the free list. Bumping the
// generation first invalidates every EventID that still names it.
func (e *Engine) recycle(i int32) {
	s := &e.slots[i]
	s.fn = nil
	s.dead = false
	s.gen++
	e.free = append(e.free, i)
}

// push inserts q into the 4-ary heap.
func (e *Engine) push(q qent) {
	h := append(e.heap, q)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !q.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = q
	e.heap = h
}

// pop removes and returns the heap minimum; the heap must be non-empty.
func (e *Engine) pop() qent {
	top := e.heap[0]
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.down(0)
	}
	return top
}

// down sifts the entry at i toward the leaves until no child precedes
// it.
func (e *Engine) down(i int) {
	h := e.heap
	n := len(h)
	q := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(q) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = q
}

// purge drops cancelled entries from the heap, recycling their slots,
// and re-heapifies what is left. Cancel calls it once cancelled entries
// outnumber live ones, so the heap stays proportional to the events in
// flight even when most scheduled events are cancelled (keep-alive
// timers). Each purge follows at least half a heap's worth of cancels,
// so its cost is amortized O(1) per Cancel.
func (e *Engine) purge() {
	h := e.heap[:0]
	for _, q := range e.heap {
		if e.slots[q.slot].dead {
			e.recycle(q.slot)
		} else {
			h = append(h, q)
		}
	}
	e.heap = h
	for i := (len(h) - 2) / 4; i >= 0 && len(h) > 1; i-- {
		e.down(i)
	}
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) EventID {
	if d < 0 {
		panic(fmt.Sprintf("des: negative delay %d", d))
	}
	return e.At(e.now+d, fn)
}

// Cancel prevents a scheduled event from firing. Cancelling the zero
// EventID, or an event that already fired, is a no-op: firing recycles
// the slot and advances its generation, so a stale ID no longer
// matches.
func (e *Engine) Cancel(id EventID) {
	if id.ref <= 0 || int(id.ref) > len(e.slots) {
		return
	}
	if s := &e.slots[id.ref-1]; s.gen == id.gen && !s.dead {
		s.dead = true
		e.live--
		if len(e.heap) > 2*e.live {
			e.purge()
		}
	}
}

// Stream feeds n pre-sorted events without scheduling them up front:
// event i fires fn(i) at time at(i), and at must be non-decreasing in
// i, starting no earlier than Now. Opening the stream reserves the
// insertion sequence block [seq, seq+n), so event i ranks exactly as
// the i-th of n At calls made at this moment would — ties against
// events scheduled before or after the call break the same way. Only
// the head of the stream is materialized; dispatch merges it with the
// heap top. At most one stream may be unread at a time.
func (e *Engine) Stream(n int, at func(int) Time, fn func(int)) {
	if e.arr.next < e.arr.n {
		panic("des: stream opened while another is unread")
	}
	if n <= 0 {
		return
	}
	head := at(0)
	if head < e.now {
		panic(fmt.Sprintf("des: schedule in the past: %v < now %v", head, e.now))
	}
	e.arr = stream{at: at, fn: fn, n: n, head: head, seq0: e.seq}
	e.seq += uint64(n)
}

// Executed reports the number of events dispatched since construction.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports the number of live scheduled events, counting the
// unread part of the stream.
func (e *Engine) Pending() int { return e.live + e.arr.n - e.arr.next }

// next reports the earliest pending event: its time, and whether it is
// the stream head rather than the heap top. Cancelled heap tops are
// discarded on the way. ok is false when nothing is pending.
func (e *Engine) next() (at Time, fromStream, ok bool) {
	for len(e.heap) > 0 && e.slots[e.heap[0].slot].dead {
		e.recycle(e.pop().slot)
	}
	if s := &e.arr; s.next < s.n && (len(e.heap) == 0 || s.key().before(e.heap[0])) {
		return s.head, true, true
	}
	if len(e.heap) == 0 {
		return 0, false, false
	}
	return e.heap[0].at, false, true
}

// fire dispatches the event next just reported, advancing the clock to
// its timestamp.
func (e *Engine) fire(fromStream bool) {
	e.executed++
	if fromStream {
		s := &e.arr
		i := s.next
		e.now = s.head
		fn := s.fn
		if s.next++; s.next < s.n {
			at := s.at(s.next)
			if at < s.head {
				panic(fmt.Sprintf("des: stream event %d at %v precedes event %d at %v", s.next, at, i, s.head))
			}
			s.head = at
		} else {
			*s = stream{}
		}
		fn(i)
		return
	}
	q := e.pop()
	e.now = q.at
	fn := e.slots[q.slot].fn
	// Recycle before dispatch: if fn schedules a follow-up event it
	// reuses this slot, keeping the steady state allocation-free.
	e.recycle(q.slot)
	e.live--
	fn()
}

// Step runs the single earliest event, advancing the clock to its
// timestamp. It returns false when the queue is empty.
func (e *Engine) Step() bool {
	_, fromStream, ok := e.next()
	if ok {
		e.fire(fromStream)
	}
	return ok
}

// Stop makes the in-flight Run or RunUntil return after the current
// event finishes, leaving the remaining queue unexecuted. It exists for
// the serving layer's cancellation path: a session's telemetry sink —
// which runs on the engine's own goroutine, inside an event — calls
// Stop when its context is done, and the replay unwinds cleanly at the
// next event boundary. Stop is terminal for the engine: the abandoned
// queue is never drained, so a stopped simulation's partial results
// must be treated as such (the facade surfaces this as ErrInterrupted).
// Call it only from the goroutine running the engine.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Run drains the event queue. Events may schedule further events.
func (e *Engine) Run() {
	for !e.stopped && e.Step() {
	}
}

// RunUntil processes events with timestamps <= deadline, then sets the
// clock to the deadline. A Stop from inside an event ends the loop
// early without touching the clock.
func (e *Engine) RunUntil(deadline Time) {
	for !e.stopped {
		at, fromStream, ok := e.next()
		if !ok || at > deadline {
			break
		}
		e.fire(fromStream)
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
}

// nextAt returns the timestamp of the earliest live event, or false
// when the queue is drained. The sharded engine's barrier loop uses it
// to compute the global horizon.
func (e *Engine) nextAt() (Time, bool) {
	at, _, ok := e.next()
	return at, ok
}

// runBefore dispatches every event with a timestamp strictly below end
// — one epoch of the sharded engine — leaving the clock at the last
// executed event. It reports the number of events dispatched.
func (e *Engine) runBefore(end Time) int {
	n := 0
	for {
		at, fromStream, ok := e.next()
		if !ok || at >= end {
			return n
		}
		e.fire(fromStream)
		n++
	}
}

// Every schedules fn to run every period nanoseconds of virtual time,
// starting one period from now, until fn returns false. The background
// maintenance loops (capacity reclaim, A-bit reset) use it so their
// cadence lives on the same deterministic event heap as the work they
// observe. The first tick returning false ends the series; no EventID
// is exposed because the predicate is the cancellation.
func (e *Engine) Every(period Time, fn func() bool) {
	if period <= 0 {
		panic(fmt.Sprintf("des: non-positive period %d", period))
	}
	var tick func()
	tick = func() {
		if !fn() {
			return
		}
		e.After(period, tick)
	}
	e.After(period, tick)
}

// Resource is a FIFO server pool with a fixed number of slots: the model
// for CPU cores on a node. Work items queue when all slots are busy.
// The queue pops by advancing head and compacts once the vacated
// prefix is at least half the slice, so every grant is amortized O(1).
type Resource struct {
	eng   *Engine
	slots int
	busy  int
	queue []func(start Time)
	head  int // index of the oldest waiting item
}

// NewResource returns a resource with n slots on engine e.
func NewResource(e *Engine, n int) *Resource {
	if n <= 0 {
		panic("des: resource needs at least one slot")
	}
	return &Resource{eng: e, slots: n}
}

// Busy reports the number of occupied slots.
func (r *Resource) Busy() int { return r.busy }

// QueueLen reports the number of waiting work items.
func (r *Resource) QueueLen() int { return len(r.queue) - r.head }

// Acquire requests a slot. fn runs (is called) at the virtual time the
// slot is granted, receiving that time. The caller must later call
// Release exactly once per granted slot.
func (r *Resource) Acquire(fn func(start Time)) {
	if r.busy < r.slots {
		r.busy++
		fn(r.eng.Now())
		return
	}
	r.queue = append(r.queue, fn)
}

// Release frees a slot, immediately granting it to the head of the queue
// if any.
func (r *Resource) Release() {
	if r.busy <= 0 {
		panic("des: release without acquire")
	}
	if r.head == len(r.queue) {
		r.busy--
		return
	}
	next := r.queue[r.head]
	r.queue[r.head] = nil
	r.head++
	if 2*r.head >= len(r.queue) {
		n := copy(r.queue, r.queue[r.head:])
		clear(r.queue[n:])
		r.queue = r.queue[:n]
		r.head = 0
	}
	next(r.eng.Now())
}

// Exec is the common acquire→advance→release pattern for one-shot jobs:
// it occupies a slot for dur virtual nanoseconds starting as soon as a
// slot frees, then calls done with the completion time.
func (r *Resource) Exec(dur Time, done func(end Time)) {
	r.Acquire(func(start Time) {
		r.eng.At(start+dur, func() {
			r.Release()
			if done != nil {
				done(r.eng.Now())
			}
		})
	})
}
