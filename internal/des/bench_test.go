package des

import (
	"runtime"
	"testing"
)

func BenchmarkAdvance(b *testing.B) {
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.Advance(100)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.After(Time(i%1000), func() {})
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
}

func BenchmarkResourceExec(b *testing.B) {
	e := NewEngine()
	r := NewResource(e, 8)
	for i := 0; i < b.N; i++ {
		r.Exec(100, nil)
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
}

// deepQueueEvents is the arrival count of the deep-queue benchmarks:
// the order of a million-request trace replay.
const deepQueueEvents = 1 << 20

// deepQueueAt spreads the arrivals over ~1 s of virtual time with
// runs of equal timestamps.
func deepQueueAt(i int) Time { return Time(i/4) * 4 * Microsecond }

// BenchmarkEngineDeepQueue schedules a million events up front and
// drains them: every pop sifts through the full heap.
func BenchmarkEngineDeepQueue(b *testing.B) {
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		e := NewEngine()
		sink := 0
		for i := 0; i < deepQueueEvents; i++ {
			i := i
			e.At(deepQueueAt(i), func() { sink += i })
		}
		e.Run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*deepQueueEvents), "ns/event")
}

// BenchmarkEngineStream feeds the same million events through the
// arrival stream, so the heap only ever holds what is in flight.
func BenchmarkEngineStream(b *testing.B) {
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		e := NewEngine()
		sink := 0
		e.Stream(deepQueueEvents, deepQueueAt, func(i int) { sink += i })
		e.Run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*deepQueueEvents), "ns/event")
}

// benchLoad seeds the benchmark workload: per-node chains of chunked
// copy events with ring replication sends — the des-level shape of the
// 64-node lane benchmark the trajectory harness runs.
func benchLoad(fab Fabric, lookahead Time, nodes, requests, chunks int) {
	for i := 0; i < nodes; i++ {
		i := i
		eng := fab.Shard(i)
		var request func(r int)
		request = func(r int) {
			var step func(left int)
			step = func(left int) {
				if left == 0 {
					dst := (i + 1) % nodes
					fab.Send(i, dst, lookahead, func() {})
					if r+1 < requests {
						eng.After(Millisecond, func() { request(r + 1) })
					}
					return
				}
				eng.After(16*Microsecond, func() { step(left - 1) })
			}
			step(chunks)
		}
		eng.At(Time(i)*Microsecond, func() { request(0) })
	}
}

func benchEngine(b *testing.B, workers int) {
	const (
		nodes     = 64
		requests  = 20
		chunks    = 100
		lookahead = 2 * Millisecond
	)
	b.ReportAllocs()
	var events uint64
	for n := 0; n < b.N; n++ {
		fab := NewFabric(nodes, workers, lookahead)
		benchLoad(fab, lookahead, nodes, requests, chunks)
		fab.Run()
		events = fab.Executed()
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
}

func BenchmarkEngine1Workers(b *testing.B) { benchEngine(b, 1) }

func BenchmarkEngine8Workers(b *testing.B) { benchEngine(b, 8) }

// TestZeroAllocsPerEventSteadyState is the allocation ceiling of the
// pooled event path: once the free list is primed, dispatching an
// event and scheduling its successor allocates nothing.
func TestZeroAllocsPerEventSteadyState(t *testing.T) {
	const warm, total = 1000, 101000
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < total {
			e.After(Microsecond, tick)
		}
	}
	e.After(Microsecond, tick)
	for count < warm {
		if !e.Step() {
			t.Fatal("queue drained during warmup")
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	e.Run()
	runtime.ReadMemStats(&m1)
	perEvent := float64(m1.Mallocs-m0.Mallocs) / float64(total-warm)
	if perEvent > 0.001 {
		t.Fatalf("steady state allocates %.4f objects/event, want 0", perEvent)
	}
	if e.Executed() != total {
		t.Fatalf("executed %d events, want %d", e.Executed(), total)
	}
}

// TestShardedAllocCeiling bounds the sharded path: barriers may
// allocate (outbox growth, sort scaffolding) but the per-event cost
// must stay far below one object.
func TestShardedAllocCeiling(t *testing.T) {
	const lookahead = 2 * Millisecond
	run := func() uint64 {
		se := NewShardedEngine(16, 1, lookahead)
		for i := 0; i < 16; i++ {
			i := i
			eng := se.Shard(i)
			count := 0
			var tick func()
			tick = func() {
				count++
				if count%50 == 0 {
					se.Send(i, (i+1)%16, lookahead, func() {})
				}
				if count < 5000 {
					eng.After(16*Microsecond, tick)
				}
			}
			eng.After(Microsecond, tick)
		}
		se.Run()
		return se.Executed()
	}
	run() // prime pools and lazy scaffolding
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	events := run()
	runtime.ReadMemStats(&m1)
	perEvent := float64(m1.Mallocs-m0.Mallocs) / float64(events)
	// The run builds 16 fresh engines and tick closures up front;
	// amortized over ~80k events that must stay well under one object
	// per event.
	if perEvent > 0.05 {
		t.Fatalf("sharded path allocates %.4f objects/event, want < 0.05", perEvent)
	}
}
