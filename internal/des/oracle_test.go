package des

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// refEngine is the engine as it was before the value heap and the
// arrival stream: a container/heap of pooled *refEvent pointers, with
// a Stream that schedules every event up front. It is the oracle the
// randomized test below replays the production engine against.
type refEngine struct {
	now      Time
	seq      uint64
	events   refEventHeap
	free     []*refEvent
	executed uint64
	stopped  bool
}

type refEvent struct {
	at   Time
	seq  uint64
	gen  uint32
	fn   func()
	dead bool
	idx  int
}

type refEventID struct {
	ev  *refEvent
	gen uint32
}

type refEventHeap []*refEvent

func (h refEventHeap) Len() int { return len(h) }
func (h refEventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refEventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *refEventHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *refEventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

func (e *refEngine) At(t Time, fn func()) refEventID {
	if t < e.now {
		panic("ref: schedule in the past")
	}
	var ev *refEvent
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = &refEvent{}
	}
	ev.at, ev.seq, ev.fn = t, e.seq, fn
	e.seq++
	heap.Push(&e.events, ev)
	return refEventID{ev, ev.gen}
}

func (e *refEngine) recycle(ev *refEvent) {
	ev.fn = nil
	ev.dead = false
	ev.gen++
	e.free = append(e.free, ev)
}

func (e *refEngine) After(d Time, fn func()) refEventID { return e.At(e.now+d, fn) }

func (e *refEngine) Cancel(id refEventID) {
	if id.ev != nil && id.ev.gen == id.gen {
		id.ev.dead = true
	}
}

// Stream is the specification of Engine.Stream: n At calls made now.
func (e *refEngine) Stream(n int, at func(int) Time, fn func(int)) {
	for i := 0; i < n; i++ {
		i := i
		e.At(at(i), func() { fn(i) })
	}
}

func (e *refEngine) Pending() int {
	n := 0
	for _, ev := range e.events {
		if !ev.dead {
			n++
		}
	}
	return n
}

func (e *refEngine) Step() bool {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*refEvent)
		if ev.dead {
			e.recycle(ev)
			continue
		}
		e.now = ev.at
		fn := ev.fn
		e.recycle(ev)
		e.executed++
		fn()
		return true
	}
	return false
}

func (e *refEngine) Run() {
	for !e.stopped && e.Step() {
	}
}

func (e *refEngine) RunUntil(deadline Time) {
	for !e.stopped && len(e.events) > 0 {
		for len(e.events) > 0 && e.events[0].dead {
			e.recycle(heap.Pop(&e.events).(*refEvent))
		}
		if len(e.events) == 0 || e.events[0].at > deadline {
			break
		}
		ev := heap.Pop(&e.events).(*refEvent)
		e.now = ev.at
		fn := ev.fn
		e.recycle(ev)
		e.executed++
		fn()
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
}

func (e *refEngine) nextAt() (Time, bool) {
	for len(e.events) > 0 && e.events[0].dead {
		e.recycle(heap.Pop(&e.events).(*refEvent))
	}
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}

func (e *refEngine) runBefore(end Time) int {
	n := 0
	for {
		at, ok := e.nextAt()
		if !ok || at >= end {
			return n
		}
		ev := heap.Pop(&e.events).(*refEvent)
		e.now = ev.at
		fn := ev.fn
		e.recycle(ev)
		e.executed++
		fn()
		n++
	}
}

// oracleRun replays one random operation sequence against both engines
// and fails at the first observable divergence: dispatch order, clock,
// Executed, Pending, or any operation's return value.
type oracleRun struct {
	t   *testing.T
	rng *rand.Rand
	e   *Engine
	ref *refEngine
	// Dispatch logs: every callback appends its label.
	got, want []int
	// Parallel ID tables: ids[k] and refIDs[k] name the same event.
	ids    []EventID
	refIDs []refEventID
	label  int
	// stopLabel, when positive, is the label whose callback calls Stop.
	stopLabel int
}

// schedule adds one event at t to both engines. Its callback logs the
// label and, for some labels, schedules or cancels follow-ups from
// inside the dispatch — deterministically, so both engines do the same.
func (o *oracleRun) schedule(t Time) {
	o.label++
	l := o.label
	o.ids = append(o.ids, o.e.At(t, o.callback(l, true)))
	o.refIDs = append(o.refIDs, o.ref.At(t, o.callback(l, false)))
}

func (o *oracleRun) callback(l int, prod bool) func() {
	return func() {
		if prod {
			o.got = append(o.got, l)
		} else {
			o.want = append(o.want, l)
		}
		if l == o.stopLabel {
			if prod {
				o.e.Stop()
			} else {
				o.ref.stopped = true
			}
		}
		if l%3 == 0 {
			// A follow-up at the current instant or shortly after:
			// same-time ties against heap and stream events.
			child := -l
			d := Time(l % 4)
			if prod {
				o.e.After(d, func() { o.got = append(o.got, child) })
			} else {
				o.ref.After(d, func() { o.want = append(o.want, child) })
			}
		}
		if l%5 == 0 && l > 1 {
			// Cancel an older event, which may be pending, fired, or
			// recycled under a later schedule.
			k := (l * 7) % (l - 1)
			if k < len(o.ids) {
				if prod {
					o.e.Cancel(o.ids[k])
				} else {
					o.ref.Cancel(o.refIDs[k])
				}
			}
		}
	}
}

// stream opens a stream of n events on both engines, with timestamps
// drawn from a few values near now so they tie with heap events
// scheduled both before and after the call.
func (o *oracleRun) stream(n int) {
	base := o.label
	o.label += n
	at := make([]Time, n)
	for i := range at {
		at[i] = o.e.Now() + Time(o.rng.Intn(6))
	}
	slices.Sort(at)
	o.e.Stream(n, func(i int) Time { return at[i] }, func(i int) { o.got = append(o.got, base+1+i) })
	o.ref.Stream(n, func(i int) Time { return at[i] }, func(i int) { o.want = append(o.want, base+1+i) })
}

func (o *oracleRun) check(step int, op string) {
	o.t.Helper()
	if !reflect.DeepEqual(o.got, o.want) {
		o.t.Fatalf("step %d (%s): dispatch order diverged\n got %v\nwant %v", step, op, o.got, o.want)
	}
	if o.e.Now() != o.ref.now || o.e.Executed() != o.ref.executed || o.e.Pending() != o.ref.Pending() {
		o.t.Fatalf("step %d (%s): now/executed/pending = %v/%d/%d, oracle %v/%d/%d", step, op,
			o.e.Now(), o.e.Executed(), o.e.Pending(), o.ref.now, o.ref.executed, o.ref.Pending())
	}
	// Every slot is either named by a heap entry or on the free list.
	if len(o.e.heap)+len(o.e.free) != len(o.e.slots) {
		o.t.Fatalf("step %d (%s): %d heap entries + %d free slots != %d slots", step, op,
			len(o.e.heap), len(o.e.free), len(o.e.slots))
	}
}

func (o *oracleRun) streamUnread() bool { return o.e.arr.next < o.e.arr.n }

func (o *oracleRun) play(ops int) {
	for step := 0; step < ops; step++ {
		now := o.e.Now()
		var op string
		switch r := o.rng.Intn(100); {
		case r < 30:
			op = "At"
			o.schedule(now + Time(o.rng.Intn(8)))
		case r < 38:
			op = "Cancel"
			if len(o.ids) > 0 {
				k := o.rng.Intn(len(o.ids))
				o.e.Cancel(o.ids[k])
				o.ref.Cancel(o.refIDs[k])
			}
		case r < 40:
			op = "Cancel(zero)"
			o.e.Cancel(EventID{})
		case r < 48:
			op = "Stream"
			if !o.streamUnread() {
				o.stream(1 + o.rng.Intn(12))
			}
		case r < 70:
			op = "Step"
			if a, b := o.e.Step(), o.ref.Step(); a != b {
				o.t.Fatalf("step %d: Step = %v, oracle %v", step, a, b)
			}
		case r < 80:
			op = "RunUntil"
			d := now + Time(o.rng.Intn(6))
			o.e.RunUntil(d)
			o.ref.RunUntil(d)
		case r < 88:
			op = "nextAt"
			a, aok := o.e.nextAt()
			b, bok := o.ref.nextAt()
			if a != b || aok != bok {
				o.t.Fatalf("step %d: nextAt = %v/%v, oracle %v/%v", step, a, aok, b, bok)
			}
		case r < 96:
			op = "runBefore"
			end := now + Time(o.rng.Intn(6))
			if a, b := o.e.runBefore(end), o.ref.runBefore(end); a != b {
				o.t.Fatalf("step %d: runBefore = %d, oracle %d", step, a, b)
			}
		default:
			op = "Advance"
			d := Time(o.rng.Intn(3))
			o.e.Advance(d)
			o.ref.now += d
		}
		o.check(step, op)
	}
	o.e.Run()
	o.ref.Run()
	o.check(ops, "Run")
}

// TestEngineMatchesHeapOracle replays random interleavings of At,
// After (from inside callbacks), Cancel (live, fired, recycled and
// zero IDs), Stream, Step, RunUntil, nextAt, runBefore, Advance and
// Stop against the container/heap reference engine.
func TestEngineMatchesHeapOracle(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o := &oracleRun{t: t, rng: rng, e: NewEngine(), ref: &refEngine{}}
		if seed%4 == 3 {
			o.stopLabel = 20 + rng.Intn(60)
		}
		o.play(300)
		if seed%4 == 3 && o.e.Stopped() != o.ref.stopped {
			t.Fatalf("seed %d: Stopped = %v, oracle %v", seed, o.e.Stopped(), o.ref.stopped)
		}
	}
}

// TestCancelPurgesDeadEntries cancels most of a deep queue in random
// order: after every Cancel the heap holds at most twice the live
// events, purged slots are back on the free list, and the survivors
// still fire in the oracle's order.
func TestCancelPurgesDeadEntries(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e, ref := NewEngine(), &refEngine{}
		var got, want []int
		var ids []EventID
		var refIDs []refEventID
		for i := 0; i < 2000; i++ {
			i := i
			at := Time(rng.Intn(500))
			ids = append(ids, e.At(at, func() { got = append(got, i) }))
			refIDs = append(refIDs, ref.At(at, func() { want = append(want, i) }))
		}
		for n, k := range rng.Perm(len(ids))[:1700] {
			e.Cancel(ids[k])
			ref.Cancel(refIDs[k])
			if len(e.heap) > 2*e.live || len(e.heap)+len(e.free) != len(e.slots) {
				t.Fatalf("seed %d: after %d cancels: %d heap entries, %d live, %d free of %d slots",
					seed, n+1, len(e.heap), e.live, len(e.free), len(e.slots))
			}
			if n%97 == 0 {
				e.Step()
				ref.Step()
			}
		}
		e.Run()
		ref.Run()
		if !reflect.DeepEqual(got, want) || e.Executed() != ref.executed {
			t.Fatalf("seed %d: dispatch diverged after purges\n got %v\nwant %v", seed, got, want)
		}
	}
}

// TestStreamTiesAroundSeqBlock pins the ranking rule directly: stream
// events rank after equal-time events scheduled before Stream and
// before equal-time events scheduled after it, including follow-ups a
// stream event schedules at its own instant.
func TestStreamTiesAroundSeqBlock(t *testing.T) {
	e := NewEngine()
	var order []string
	log := func(s string) func() { return func() { order = append(order, s) } }
	e.At(10, log("before@10"))
	e.At(5, log("before@5"))
	e.Stream(3, func(i int) Time { return []Time{5, 10, 10}[i] }, func(i int) {
		order = append(order, fmt.Sprintf("s%d", i))
		if i == 1 {
			e.At(10, log("child@10"))
		}
	})
	e.At(10, log("after@10"))
	e.At(5, log("after@5"))
	if got := e.Pending(); got != 7 {
		t.Fatalf("Pending = %d, want 7", got)
	}
	e.Run()
	want := []string{"before@5", "s0", "after@5", "before@10", "s1", "s2", "after@10", "child@10"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v\nwant    %v", order, want)
	}
	if e.Executed() != 8 || e.Pending() != 0 {
		t.Fatalf("executed/pending = %d/%d, want 8/0", e.Executed(), e.Pending())
	}
}

func TestStreamValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"past": func() {
			e := NewEngine()
			e.Advance(10)
			e.Stream(1, func(int) Time { return 5 }, func(int) {})
		},
		"unsorted": func() {
			e := NewEngine()
			e.Stream(2, func(i int) Time { return Time(10 - i) }, func(int) {})
			e.Run()
		},
		"second unread stream": func() {
			e := NewEngine()
			e.Stream(1, func(int) Time { return 1 }, func(int) {})
			e.Stream(1, func(int) Time { return 1 }, func(int) {})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
	// A drained stream may be followed by another; an empty one is a
	// no-op.
	e := NewEngine()
	n := 0
	e.Stream(2, func(i int) Time { return Time(i) }, func(int) { n++ })
	e.Run()
	e.Stream(0, nil, nil)
	e.Stream(1, func(int) Time { return 3 }, func(int) { n++ })
	e.Run()
	if n != 3 || e.Now() != 3 {
		t.Fatalf("n=%d now=%v, want 3 events ending at 3", n, e.Now())
	}
}

// TestShardedEngineWithStreams drives the sharded barrier loop
// (horizon via nextAt, epochs via runBefore) over shards whose arrivals
// come from streams, and requires the same per-shard trajectories,
// event count and epoch count as scheduling every arrival with At.
func TestShardedEngineWithStreams(t *testing.T) {
	const shards, arrivals, lookahead = 4, 200, 20 * Microsecond
	run := func(useStream bool) ([][]Time, uint64, uint64) {
		se := NewShardedEngine(shards, 2, lookahead)
		logs := make([][]Time, shards)
		for s := 0; s < shards; s++ {
			s := s
			eng := se.Shard(s)
			// A periodic local event scheduled before the stream ties
			// with arrivals at the same instants.
			eng.At(0, func() {})
			at := func(i int) Time { return Time(i/3) * Time(s+1) * Microsecond }
			arrive := func(i int) {
				logs[s] = append(logs[s], eng.Now()*1000+Time(i%1000))
				if i%4 == 0 {
					se.Send(s, (s+1)%shards, lookahead, func() {
						d := se.Shard((s + 1) % shards)
						logs[(s+1)%shards] = append(logs[(s+1)%shards], -d.Now())
					})
				}
				if i%5 == 0 {
					eng.After(0, func() { logs[s] = append(logs[s], eng.Now()) })
				}
			}
			if useStream {
				eng.Stream(arrivals, at, arrive)
			} else {
				for i := 0; i < arrivals; i++ {
					i := i
					eng.At(at(i), func() { arrive(i) })
				}
			}
		}
		se.Run()
		if se.Pending() != 0 {
			t.Fatalf("stream=%v: %d events left pending", useStream, se.Pending())
		}
		return logs, se.Executed(), se.Epochs()
	}
	wantLogs, wantExec, wantEpochs := run(false)
	gotLogs, gotExec, gotEpochs := run(true)
	if !reflect.DeepEqual(gotLogs, wantLogs) || gotExec != wantExec || gotEpochs != wantEpochs {
		t.Fatalf("streamed sharded run diverged: executed %d/%d, epochs %d/%d", gotExec, wantExec, gotEpochs, wantEpochs)
	}
	if wantEpochs < 2 {
		t.Fatalf("workload ran %d epochs; want several", wantEpochs)
	}
}
