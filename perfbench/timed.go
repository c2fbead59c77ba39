package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"cxlfork"
)

// sessionDeadline interrupts a served session that runs this long;
// the interrupted session counts as failed.
const sessionDeadline = 150 * time.Second

// outcome is one RunWorkload call as the benchmark observed it.
type outcome struct {
	wall time.Duration
	// firstTick is the wall time from the call to the first OnSample
	// tick; zero when the session delivered none.
	firstTick time.Duration
	ticks     int64
	report    *cxlfork.RunReport
	err       error
}

// frameSink renders every tick into NDJSON frames exactly as
// internal/serve's session log does, into a reused buffer.
type frameSink struct {
	session string
	buf     bytes.Buffer
}

type sampleFrame struct {
	Type    string             `json:"type"`
	Session string             `json:"session"`
	Seq     int64              `json:"seq"`
	NowMS   float64            `json:"now_ms"`
	Points  map[string]float64 `json:"points"`
}

type alertFrame struct {
	Type      string  `json:"type"`
	Session   string  `json:"session"`
	NowMS     float64 `json:"now_ms"`
	Objective string  `json:"objective"`
	Firing    bool    `json:"firing"`
	Short     float64 `json:"short"`
	Long      float64 `json:"long"`
}

func (f *frameSink) emit(v any) {
	f.buf.Reset()
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	f.buf.Write(b)
	f.buf.WriteByte('\n')
}

func (f *frameSink) tick(t cxlfork.Tick) {
	points := make(map[string]float64, len(t.Points))
	for _, p := range t.Points {
		points[p.Series] = p.Value
	}
	f.emit(sampleFrame{
		Type: "sample", Session: f.session, Seq: t.Seq,
		NowMS: float64(t.Now) / float64(time.Millisecond), Points: points,
	})
	for _, a := range t.Alerts {
		f.emit(alertFrame{
			Type: "alert", Session: f.session,
			NowMS:     float64(a.At) / float64(time.Millisecond),
			Objective: a.Objective, Firing: a.Firing, Short: a.Short, Long: a.Long,
		})
	}
}

// observer is the served-session hook state: it times the first tick
// and the sink, and decides interruption.
type observer struct {
	start      time.Time
	sink       frameSink
	firstTick  time.Duration
	ticks      int64
	sinkTime   time.Duration
	stopAtTick bool
	timedOut   bool
}

func newObserver(start time.Time, name string, stopAtTick bool) *observer {
	return &observer{start: start, sink: frameSink{session: name}, stopAtTick: stopAtTick}
}

func (o *observer) onSample(t cxlfork.Tick) {
	t0 := time.Now()
	if o.ticks == 0 {
		o.firstTick = t0.Sub(o.start)
	}
	o.ticks++
	o.sink.tick(t)
	o.sinkTime += time.Since(t0)
}

func (o *observer) interrupt() bool {
	if time.Since(o.start) > sessionDeadline {
		o.timedOut = true
		return true
	}
	return o.stopAtTick
}

// runSession makes one RunWorkload call. served installs the sink;
// stopAtTick additionally interrupts the session at its first tick.
func runSession(s session, served, stopAtTick bool) outcome {
	runtime.GC()
	start := time.Now()
	var opts *cxlfork.RunOptions
	var obs *observer
	if served {
		obs = newObserver(start, s.wl.Design, stopAtTick)
		opts = &cxlfork.RunOptions{OnSample: obs.onSample, Interrupt: obs.interrupt}
	}
	rep, err := cxlfork.RunWorkload(s.cfg, s.wl, opts)
	out := outcome{wall: time.Since(start), report: rep, err: err}
	if obs != nil {
		out.firstTick, out.ticks = obs.firstTick, obs.ticks
		if obs.timedOut {
			out.err = fmt.Errorf("interrupted after %v: %w", sessionDeadline, err)
		}
	}
	return out
}

// verify checks a full session's report: it completed every generated
// arrival, matches the pinned replay when there is one, and agrees with
// every earlier report of the same session in the ledger.
func verify(w workload, s session, o outcome, ledger *ledger, source string) error {
	if o.err != nil {
		return o.err
	}
	rep := o.report
	want, err := arrivals(s)
	if err != nil {
		return err
	}
	if rep.Completed != want {
		return fmt.Errorf("completed %d of %d generated arrivals", rep.Completed, want)
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 || rep.Fingerprint == "" {
		return fmt.Errorf("implausible report: p50 %v p99 %v fingerprint %q", rep.P50, rep.P99, rep.Fingerprint)
	}
	if w.pinned != nil && (rep.Fingerprint != w.pinned.fingerprint || rep.Completed != w.pinned.completed) {
		return fmt.Errorf("fingerprint %s / %d completed, pinned %s / %d",
			rep.Fingerprint, rep.Completed, w.pinned.fingerprint, w.pinned.completed)
	}
	return ledger.agree(s, rep, source)
}

// verifySetupProbe checks a setup-only session: an interrupted served
// session must report ErrInterrupted, a one-tick session must complete
// its whole short trace.
func verifySetupProbe(s session, o outcome, interrupted bool) error {
	if interrupted {
		if !errors.Is(o.err, cxlfork.ErrInterrupted) || o.report == nil || !o.report.Interrupted {
			return fmt.Errorf("want an interrupted report, got err %v", o.err)
		}
		if o.ticks < 1 || o.firstTick <= 0 {
			return fmt.Errorf("interrupted with no sample tick")
		}
		return nil
	}
	if o.err != nil {
		return o.err
	}
	want, err := arrivals(s)
	if err != nil {
		return err
	}
	if o.report.Completed != want {
		return fmt.Errorf("completed %d of %d generated arrivals", o.report.Completed, want)
	}
	return nil
}

// timedRun is the end-to-end measurement: setup probes first, then
// whole units of sessions through RunWorkload until the next unit
// would overrun the budget (at least one unit runs). session_s is the
// median over units of the unit's mean session wall time: the sweep's
// four sessions are four different designs, and a median across them
// would report whichever two land in the middle.
func timedRun(w workload, budget time.Duration, ledger *ledger, t *tally) map[string]metric {
	var setups, walls []float64
	var reports []*cxlfork.RunReport

	for i := 0; i < w.setupProbes; i++ {
		s := w.unit[0]
		interrupted := w.setup == setupFirstTick
		if !interrupted {
			s.wl.Duration = oneTick
		}
		o := runSession(s, w.served, interrupted)
		if t.check(fmt.Sprintf("%s setup probe %d", w.name, i), verifySetupProbe(s, o, interrupted)) {
			if interrupted {
				setups = append(setups, o.firstTick.Seconds())
			} else {
				setups = append(setups, o.wall.Seconds())
			}
		}
	}

	start := time.Now()
	var unitWall time.Duration
	for units := 0; units == 0 || time.Since(start)+unitWall <= budget; units++ {
		u0 := time.Now()
		var mean float64
		complete := true
		for _, s := range w.unit {
			o := runSession(s, w.served, false)
			ok := t.check(fmt.Sprintf("%s %s session", w.name, s.wl.Design), verify(w, s, o, ledger, "timed"))
			logSession(w.name, s, o)
			if !ok {
				complete = false
				continue
			}
			mean += o.wall.Seconds()
			reports = append(reports, o.report)
			if w.setup == setupFirstTick {
				setups = append(setups, o.firstTick.Seconds())
			}
		}
		if complete {
			walls = append(walls, mean/float64(len(w.unit)))
		}
		unitWall = time.Since(u0)
	}

	m := map[string]metric{
		"session_s":    {median(walls), "s"},
		"setup_s":      {median(setups), "s"},
		"peak_rss_mb":  {peakRSSMB(), "MB"},
		"success_rate": {1 - float64(t.failed)/float64(t.attempted), "fraction"},
	}
	// Latencies are means over sessions weighted by completed requests,
	// so a short, bursty session weighs no more than its requests.
	var p50, p99, cold float64
	var warm, completed int
	for _, r := range reports {
		n := float64(r.Completed)
		p50 += n * ms(r.P50)
		p99 += n * ms(r.P99)
		cold += n * ms(r.ColdP99)
		warm += r.WarmStarts
		completed += r.Completed
	}
	n := float64(completed)
	m["sim_p50_ms"] = metric{p50 / n, "virtual_ms"}
	m["sim_p99_ms"] = metric{p99 / n, "virtual_ms"}
	m["sim_cold_p99_ms"] = metric{cold / n, "virtual_ms"}
	m["sim_warm_frac"] = metric{float64(warm) / n, "fraction"}
	return m
}

func logSession(workload string, s session, o outcome) {
	if o.report == nil {
		return
	}
	r := o.report
	fmt.Printf("%s %-11s rps=%-5g wall=%.3fs first-tick=%.3fs completed=%d warm=%d p50=%.3fms p99=%.3fms cold-p99=%.3fms fp=%s\n",
		workload, s.wl.Design, s.wl.RPS, o.wall.Seconds(), o.firstTick.Seconds(), r.Completed, r.WarmStarts,
		ms(r.P50), ms(r.P99), ms(r.ColdP99), r.Fingerprint)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mean of xs; NaN when empty.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median of xs; NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// ledger remembers, per checkout, the fingerprint every session
// reported, keyed by its Config and Workload. Timed and traced runs of
// the same session — and replay-batch and replay-served, which share
// their Config and Workload — must all agree with it.
type ledger struct {
	path    string
	entries map[string]ledgerEntry
	dirty   bool
}

type ledgerEntry struct {
	Fingerprint string `json:"fingerprint"`
	Completed   int    `json:"completed"`
	Source      string `json:"source"`
}

func openLedger(dir string) *ledger {
	l := &ledger{path: filepath.Join(dir, "perfbench-fingerprints.json"), entries: map[string]ledgerEntry{}}
	if b, err := os.ReadFile(l.path); err == nil {
		if err := json.Unmarshal(b, &l.entries); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: ignoring unreadable ledger %s: %v\n", l.path, err)
			l.entries = map[string]ledgerEntry{}
		}
	}
	return l
}

func ledgerKey(s session) string {
	b, err := json.Marshal(struct {
		Config   cxlfork.Config
		Workload cxlfork.Workload
	}{s.cfg, s.wl})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// agree records rep for s, or checks it against the recorded one.
func (l *ledger) agree(s session, rep *cxlfork.RunReport, source string) error {
	key := ledgerKey(s)
	if prev, ok := l.entries[key]; ok {
		if prev.Fingerprint != rep.Fingerprint || prev.Completed != rep.Completed {
			return fmt.Errorf("fingerprint %s / %d completed, the %s run reported %s / %d",
				rep.Fingerprint, rep.Completed, prev.Source, prev.Fingerprint, prev.Completed)
		}
		return nil
	}
	l.entries[key] = ledgerEntry{Fingerprint: rep.Fingerprint, Completed: rep.Completed, Source: source}
	l.dirty = true
	return nil
}

func (l *ledger) save() error {
	if !l.dirty {
		return nil
	}
	b, err := json.MarshalIndent(l.entries, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(l.path), 0o755); err != nil {
		return err
	}
	tmp := l.path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, l.path)
}
