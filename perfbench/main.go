// Command perfbench is the repository benchmark: it times what-if
// sessions and million-request replays end to end through the public
// cxlfork.RunWorkload entry point, and, in a separate traced run,
// attributes a session's host cost to the layers underneath it by
// driving the same public calls RunWorkload makes, one span per call,
// plus probe legs on the workload's own inputs.
//
//	perfbench -workload whatif-sweep -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With -trace 0 the metrics
// are the end-to-end ones; with -trace 1 they are the per-layer ones.
// LAYERS.md lists every metric and the end-to-end metric each layer
// metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

// runDeadline bounds one invocation: a run that has not finished by
// then exits non-zero without printing a result.
const runDeadline = 175 * time.Second

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations and their failures across a run.
type tally struct {
	attempted, failed int
}

// check records one attempted operation; a non-nil err fails it.
func (t *tally) check(what string, err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", what, err)
		return false
	}
	return true
}

func main() {
	workload := flag.String("workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measurement budget in seconds: whole units run until the next would overrun it, at least one")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the timed one")
	state := flag.String("state", ".bench_build", "directory for the fingerprint ledger")
	flag.Parse()

	w, ok := lookupWorkload(*workload, *seed)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, workloadNames())
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		os.Exit(2)
	}
	time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runDeadline)
		os.Exit(3)
	})

	ledger := openLedger(*state)
	var t tally
	var metrics map[string]metric
	if *traced != 0 {
		metrics = tracedRun(w, ledger, &t)
	} else {
		metrics = timedRun(w, time.Duration(*seconds)*time.Second, ledger, &t)
	}
	if err := ledger.save(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: saving fingerprint ledger: %v\n", err)
	}
	for k, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// A metric with no valid sample (every session failed) reads
			// 0; correct is false whenever that happens.
			m.Value = 0
			metrics[k] = m
		}
	}
	out, err := json.Marshal(result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
