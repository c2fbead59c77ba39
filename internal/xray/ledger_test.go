package xray

import (
	"slices"
	"testing"

	"cxlfork/internal/des"
)

func TestLedgerComponentOrder(t *testing.T) {
	var names []string
	for _, c := range (Ledger{}).Components(nil) {
		names = append(names, c.Name)
	}
	want := []string{
		CompPorterQueue, CompUplink, CompCPUQueue, CompProbe, CompBackoff,
		CompFabric, CompRestore, CompColdInit, CompContainer, CompExec,
	}
	if !slices.Equal(names, want) {
		t.Fatalf("component order %v, want %v", names, want)
	}
	if Probe != Backoff-1 || Exec != numSlots-1 {
		t.Fatal("service slots are not the contiguous tail Probe..Exec")
	}
}

func TestLedgerServiceSumAndClose(t *testing.T) {
	var l Ledger
	for s := range l {
		l[s] = des.Time(1) << s
	}
	// Probe (bit 3) through Exec (bit 9).
	if got, want := l.Service(), des.Time(0b1111111000); got != want {
		t.Fatalf("Service = %b, want %b", got, want)
	}
	if got, want := l.Sum(), des.Time(0b1111111111); got != want {
		t.Fatalf("Sum = %b, want %b", got, want)
	}

	const arrived, end = des.Time(5000), des.Time(9000)
	l.Close(arrived, end)
	if l.Sum() != end-arrived {
		t.Fatalf("closed Sum = %d, want end-arrived = %d", l.Sum(), end-arrived)
	}
	// The service started at end - Service; the queue wait before it
	// ran from reaching the CPU queue after porter queueing and uplink.
	if got, want := l[CPUQueue], (end-l.Service())-(arrived+l[PorterQueue]+l[Uplink]); got != want {
		t.Fatalf("CPUQueue = %d, want %d", got, want)
	}
}

// TestLedgerMatchesHandBuiltComponents checks that a ledger-fed request
// renders exactly the report a hand-built component list produces, for
// the three shapes a porter request takes: a warm start (no restore
// slots), a fork restore with probe, backoff and fabric charges, and a
// restore that degraded to a scratch cold start with its failover time
// unattributed.
func TestLedgerMatchesHandBuiltComponents(t *testing.T) {
	const arrived = des.Time(1_000)
	cases := []struct {
		class string
		dev   int
		led   Ledger
		end   des.Time
		hand  []Component
		unatt int64
	}{
		{
			class: "warm-start", dev: -1,
			led: Ledger{PorterQueue: 30, Exec: 700},
			end: arrived + 30 + 45 + 700,
			hand: []Component{
				{CompPorterQueue, 30}, {CompCPUQueue, 45}, {CompExec, 700},
			},
		},
		{
			class: "fork-restore", dev: 2,
			led: Ledger{PorterQueue: 10, Uplink: 400, Probe: 50, Backoff: 20,
				Fabric: 90, Restore: 300, Container: 5, Exec: 900},
			end: arrived + 10 + 400 + 60 + 50 + 20 + 90 + 300 + 5 + 900,
			hand: []Component{
				{CompPorterQueue, 10}, {CompUplink, 400}, {CompCPUQueue, 60},
				{CompProbe, 50}, {CompBackoff, 20}, {CompFabric, 90},
				{CompRestore, 300}, {CompContainer, 5}, {CompExec, 900},
			},
		},
		{
			class: "scratch-cold", dev: -1,
			led: Ledger{Probe: 50, Backoff: 30, ColdInit: 2000,
				Container: 8, Exec: 1200},
			end: arrived + 15 + 50 + 30 + 2000 + 8 + 1200,
			hand: []Component{
				{CompPorterQueue, 0}, {CompUplink, 0}, {CompCPUQueue, 15},
				{CompProbe, 50}, {CompBackoff, 30}, {CompFabric, 0},
				{CompColdInit, 2000}, {CompContainer, 8}, {CompExec, 1200},
			},
			unatt: 80,
		},
	}
	all := [2]*Attributor{New(nil, 0), New(nil, 0)}
	var scratch []Component
	for i, c := range cases {
		hand := Request{Class: c.class, Name: "fn", Span: i + 1, Arrived: int64(arrived),
			Latency: int64(c.end - arrived), Device: c.dev, Components: c.hand, UnattributedNS: c.unatt}
		led := c.led
		led.Close(arrived, c.end)
		scratch = led.Components(scratch[:0])
		fed := hand
		fed.Latency = int64(led.Sum())
		fed.Components = scratch
		if fed.Latency != hand.Latency {
			t.Fatalf("%s: ledger Sum %d, want %d", c.class, fed.Latency, hand.Latency)
		}

		want, got := New(nil, 0), New(nil, 0)
		want.Observe(hand)
		got.Observe(fed)
		all[0].Observe(hand)
		all[1].Observe(fed)
		if w, g := want.Report(), got.Report(); w.Text() != g.Text() || w.Fingerprint() != g.Fingerprint() {
			t.Fatalf("%s: ledger report differs from hand-built\nwant:\n%s\ngot:\n%s", c.class, w.Text(), g.Text())
		}
		if cb := got.Report().Class(c.class); cb == nil || cb.ResidualNS != 0 {
			t.Fatalf("%s: missing class or residual: %+v", c.class, cb)
		}
	}
	// Observe must not keep the reused slice: reports built while the
	// scratch slice was overwritten still match.
	if w, g := all[0].Report(), all[1].Report(); w.Text() != g.Text() || w.Fingerprint() != g.Fingerprint() {
		t.Fatalf("combined ledger report differs from hand-built\nwant:\n%s\ngot:\n%s", w.Text(), g.Text())
	}
}
