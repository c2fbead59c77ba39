package cxl

import (
	"fmt"
	"math/rand"
	"testing"

	"cxlfork/internal/des"
	"cxlfork/internal/memsim"
	"cxlfork/internal/params"
	"cxlfork/internal/telemetry"
)

// TestOccupancyExclusiveShared builds two arenas that dedup-share one
// frame and checks the exclusive/shared split and that Reclaimable
// predicts the true release delta.
func TestOccupancyExclusiveShared(t *testing.T) {
	d := dev(t)
	pageSize := int64(d.p.PageSize)

	a, _ := d.NewArena("a")
	b, _ := d.NewArena("b")
	a.MustAlloc("meta-a", 100)
	b.MustAlloc("meta-b", 50)

	// Frame 1: exclusive to a. Frame 2: shared between a and b.
	f1, _, err := d.AllocToken(0x1111)
	if err != nil {
		t.Fatal(err)
	}
	a.TrackFrame(f1)
	f2, hit, err := d.AllocToken(0x2222)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("fresh token hit the index")
	}
	a.TrackFrame(f2)
	f2b, hit, err := d.AllocToken(0x2222)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || f2b != f2 {
		t.Fatal("identical token did not dedup")
	}
	b.TrackFrame(f2b)

	ao := a.Occupancy()
	if ao.Meta != 100 || ao.ExclusiveFrames != pageSize || ao.SharedFrames != pageSize {
		t.Fatalf("arena a occupancy = %+v", ao)
	}
	if got := a.ExclusiveBytes(); got != 100+pageSize {
		t.Fatalf("a.ExclusiveBytes = %d", got)
	}
	bo := b.Occupancy()
	if bo.Meta != 50 || bo.ExclusiveFrames != 0 || bo.SharedFrames != pageSize {
		t.Fatalf("arena b occupancy = %+v", bo)
	}

	do := d.Occupancy()
	if do.Arenas != 2 || do.Meta != 150 {
		t.Fatalf("device occupancy = %+v", do)
	}
	// The shared frame counts once device-wide.
	if do.ExclusiveFrames != pageSize || do.SharedFrames != pageSize {
		t.Fatalf("device frame split = %+v", do)
	}
	if do.Total() != d.UsedBytes() {
		t.Fatalf("occupancy total %d != used %d", do.Total(), d.UsedBytes())
	}

	// Releasing a frees exactly its reclaimable estimate, and promotes
	// the shared frame to exclusive in b.
	predicted := a.ExclusiveBytes()
	before := d.UsedBytes()
	a.Release()
	if delta := before - d.UsedBytes(); delta != predicted {
		t.Fatalf("release freed %d, predicted %d", delta, predicted)
	}
	bo = b.Occupancy()
	if bo.ExclusiveFrames != pageSize || bo.SharedFrames != 0 {
		t.Fatalf("arena b after promotion = %+v", bo)
	}

	predicted = b.ExclusiveBytes()
	before = d.UsedBytes()
	b.Release()
	if delta := before - d.UsedBytes(); delta != predicted {
		t.Fatalf("final release freed %d, predicted %d", delta, predicted)
	}
	if d.UsedBytes() != 0 {
		t.Fatalf("device not empty: %d", d.UsedBytes())
	}
}

// TestOccupancyClosedArena checks released arenas report zero.
func TestOccupancyClosedArena(t *testing.T) {
	d := dev(t)
	a, _ := d.NewArena("a")
	a.MustAlloc("m", 64)
	a.Release()
	if o := a.Occupancy(); o != (Occupancy{}) {
		t.Fatalf("closed arena occupancy = %+v", o)
	}
}

// TestAllocTokenRebuild replays a token list through the dedup index
// after the original arena died — the capacity manager's re-publish
// path — and checks surviving twins are reused.
func TestAllocTokenRebuild(t *testing.T) {
	d := dev(t)
	a, _ := d.NewArena("orig")
	tokens := []uint64{1, 2, 3, 4}
	for _, tok := range tokens {
		f, _, err := d.AllocToken(tok)
		if err != nil {
			t.Fatal(err)
		}
		a.TrackFrame(f)
	}
	// A twin keeps tokens 1 and 2 alive after orig is evicted.
	twin, _ := d.NewArena("twin")
	for _, tok := range tokens[:2] {
		f, hit, _ := d.AllocToken(tok)
		if !hit {
			t.Fatalf("token %d not deduped into twin", tok)
		}
		twin.TrackFrame(f)
	}
	a.Release()

	hitsBefore := d.Dedup.Hits.Value()
	replay, _ := d.NewArena("replay")
	for _, tok := range tokens {
		f, _, err := d.AllocToken(tok)
		if err != nil {
			t.Fatal(err)
		}
		replay.TrackFrame(f)
	}
	if hits := d.Dedup.Hits.Value() - hitsBefore; hits != 2 {
		t.Fatalf("replay dedup hits = %d, want 2 (surviving twins)", hits)
	}
	if replay.FrameBytes() != int64(len(tokens))*int64(d.p.PageSize) {
		t.Fatalf("replay frame bytes = %d", replay.FrameBytes())
	}
}

// referenceOccupancy is the from-scratch device walk Device.Occupancy
// replaced: per-arena reference counts rebuilt into maps on every
// call, a frame exclusive when its arena holds every live reference,
// every other frame collected into a shared set counted once.
func referenceOccupancy(d *Device) DeviceOccupancy {
	var out DeviceOccupancy
	shared := make(map[*memsim.Frame]bool)
	ps := int64(d.p.PageSize)
	d.ForEachArena(func(a *Arena) {
		out.Arenas++
		out.Meta += a.bytes
		held := make(map[*memsim.Frame]int, len(a.frames))
		for _, f := range a.frames {
			held[f]++
		}
		for f, n := range held {
			if f.Refs() == n {
				out.ExclusiveFrames += ps
			} else {
				shared[f] = true
			}
		}
	})
	out.SharedFrames = int64(len(shared)) * ps
	return out
}

// TestOccupancyOracle replays random sequences of arena-set changes
// (NewArena, TrackFrame of fresh, dedup-shared and repeated frames,
// Alloc, Seal, Release, Recover) and clone-style frame Get/Put that
// leave the arena set alone, and checks Device.Occupancy against the
// reference walk after every step.
func TestOccupancyOracle(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := dev(t)
		var (
			live   []*Arena
			clones []*memsim.Frame // extra references held outside arenas
			next   int
		)
		pick := func() *Arena {
			for len(live) > 0 {
				i := rng.Intn(len(live))
				if a := live[i]; !a.Closed() {
					return a
				}
				live = append(live[:i], live[i+1:]...)
			}
			return nil
		}
		for step := 0; step < 400; step++ {
			var op string
			switch r := rng.Intn(20); {
			case r < 2:
				op = "NewArena"
				a, err := d.NewArena(fmt.Sprintf("a%d", next))
				if err != nil {
					t.Fatal(err)
				}
				next++
				live = append(live, a)
			case r < 8:
				op = "TrackFrame(token)"
				a := pick()
				if a == nil {
					continue
				}
				// A small token space makes dedup hits across arenas
				// (and within one arena) common.
				f, _, err := d.AllocToken(uint64(rng.Intn(24)))
				if err != nil {
					continue
				}
				a.TrackFrame(f)
			case r < 10:
				op = "TrackFrame(same frame twice)"
				a := pick()
				if a == nil || len(a.frames) == 0 {
					continue
				}
				a.TrackFrame(a.frames[rng.Intn(len(a.frames))].Get())
			case r < 11:
				op = "Alloc"
				if a := pick(); a != nil && !a.Sealed() {
					a.MustAlloc("meta", int64(1+rng.Intn(256)))
				}
			case r < 12:
				op = "Seal"
				if a := pick(); a != nil {
					if err := a.Seal(); err != nil {
						t.Fatal(err)
					}
				}
			case r < 14:
				op = "Release"
				if a := pick(); a != nil {
					a.Release()
				}
			case r < 15:
				op = "Recover"
				d.Recover()
			case r < 18:
				op = "clone Get"
				a := pick()
				if a == nil || len(a.frames) == 0 {
					continue
				}
				clones = append(clones, a.frames[rng.Intn(len(a.frames))].Get())
			default:
				op = "clone Put"
				if len(clones) == 0 {
					continue
				}
				i := rng.Intn(len(clones))
				f := clones[i]
				clones = append(clones[:i], clones[i+1:]...)
				f.Pool().Put(f)
			}
			if got, want := d.Occupancy(), referenceOccupancy(d); got != want {
				t.Fatalf("seed %d step %d (%s): Occupancy = %+v, reference %+v", seed, step, op, got, want)
			}
		}
	}
}

// TestOccupancyAllocFree checks that once the frame-ownership index is
// built, repeated Occupancy calls allocate nothing — also when clone
// references come and go between them.
func TestOccupancyAllocFree(t *testing.T) {
	d := dev(t)
	a, _ := d.NewArena("a")
	b, _ := d.NewArena("b")
	for tok := uint64(0); tok < 16; tok++ {
		f, _, err := d.AllocToken(tok)
		if err != nil {
			t.Fatal(err)
		}
		a.TrackFrame(f)
		if tok%2 == 0 {
			f, _, _ = d.AllocToken(tok)
			b.TrackFrame(f)
		}
	}
	d.Occupancy()
	clone := a.frames[1]
	if n := testing.AllocsPerRun(100, func() {
		d.Occupancy()
		clone.Get()
		d.Occupancy()
		clone.Pool().Put(clone)
	}); n != 0 {
		t.Fatalf("Occupancy between arena-set changes allocates %.1f/op, want 0", n)
	}
}

var occSink DeviceOccupancy

// BenchmarkDeviceOccupancy measures one telemetry tick's occupancy
// read on a device holding ten images whose frames are half
// dedup-shared across images.
func BenchmarkDeviceOccupancy(b *testing.B) {
	p := params.Default()
	p.CXLBytes = 1 << 28
	d := NewDevice(p)
	const pages = 2048
	for img := 0; img < 10; img++ {
		a, err := d.NewArena(fmt.Sprintf("img%d", img))
		if err != nil {
			b.Fatal(err)
		}
		for pg := 0; pg < pages; pg++ {
			tok := uint64(img<<32 | pg)
			if pg%2 == 0 {
				tok = uint64(pg) // shared by every image
			}
			f, _, err := d.AllocToken(tok)
			if err != nil {
				b.Fatal(err)
			}
			a.TrackFrame(f)
		}
		a.MustAlloc("meta", 64<<10)
		if err := a.Seal(); err != nil {
			b.Fatal(err)
		}
	}
	if got, want := d.Occupancy(), referenceOccupancy(d); got != want {
		b.Fatalf("Occupancy = %+v, reference %+v", got, want)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		occSink = d.Occupancy()
	}
}

// TestOccupancyGaugesFollowEveryTick samples the exclusive and shared
// gauges, which share one Occupancy walk per tick, across changes to
// the arena set and to a frame's live references: every tick must
// report the device's occupancy at that tick.
func TestOccupancyGaugesFollowEveryTick(t *testing.T) {
	d := dev(t)
	reg := telemetry.New(1, 0)
	d.RegisterTelemetry(reg)
	last := func(key string) int64 {
		s := reg.Lookup(key).Samples()
		return int64(s[len(s)-1].V)
	}
	check := func(tick des.Time) {
		t.Helper()
		reg.Sample(tick)
		want := d.Occupancy()
		if got := last("cxl_exclusive_bytes"); got != want.ExclusiveFrames {
			t.Fatalf("tick %d: exclusive gauge %d, occupancy %+v", tick, got, want)
		}
		if got := last("cxl_shared_bytes"); got != want.SharedFrames {
			t.Fatalf("tick %d: shared gauge %d, occupancy %+v", tick, got, want)
		}
	}

	a, _ := d.NewArena("a")
	f, _, err := d.AllocToken(0x1111)
	if err != nil {
		t.Fatal(err)
	}
	a.TrackFrame(f)
	check(1) // exclusive to a
	f.Get()
	check(2) // a clone maps it: no arena change, now shared
	f.Pool().Put(f)
	check(3)
	b, _ := d.NewArena("b")
	g, _, err := d.AllocToken(0x1111)
	if err != nil {
		t.Fatal(err)
	}
	b.TrackFrame(g)
	check(4) // dedup-shared by two arenas
	b.Release()
	check(5)
}
