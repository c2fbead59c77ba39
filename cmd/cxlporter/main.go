// Command cxlporter runs one CXLporter scaling scenario: it deploys the
// autoscaler with a chosen remote-fork design over a two-node simulated
// cluster, replays a bursty Azure-like trace, and prints latency
// percentiles and scheduler statistics. It is a thin caller of
// cxlfork.RunWorkload.
//
// Usage:
//
//	cxlporter -mech cxlfork -rps 150 -duration 30 -mem 0.25
//	cxlporter -mech criu -functions Float,Json,Bert
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"cxlfork"
)

// designs maps -mech values to Workload.Design.
var designs = map[string]string{
	"cxlfork":     "CXLfork",
	"cxlfork-mow": "CXLfork-MoW",
	"criu":        "CRIU-CXL",
	"mitosis":     "Mitosis-CXL",
}

func main() {
	mech := flag.String("mech", "cxlfork", "rfork design: cxlfork, cxlfork-mow, criu, mitosis")
	rps := flag.Float64("rps", 150, "aggregate request rate")
	duration := flag.Float64("duration", 30, "trace duration in virtual seconds")
	memFrac := flag.Float64("mem", 1.0, "node memory budget as a fraction of 12 GB")
	functions := flag.String("functions", "", "comma-separated workload mix (default: full suite)")
	seed := flag.Int64("seed", 7, "trace seed")
	traceIn := flag.String("trace", "", "replay an explicit trace from a seconds,function CSV file")
	traceOut := flag.String("save-trace", "", "write the generated trace to a CSV file and exit")
	flag.Parse()

	design, ok := designs[*mech]
	if !ok {
		fmt.Fprintf(os.Stderr, "cxlporter: unknown mechanism %q\n", *mech)
		os.Exit(2)
	}
	wl := cxlfork.Workload{
		Design:          design,
		RPS:             *rps,
		Duration:        time.Duration(*duration * float64(time.Second)),
		NodeBudgetBytes: int64(*memFrac * float64(12<<30)),
		Seed:            *seed,
	}
	if *functions != "" {
		wl.Functions = strings.Split(*functions, ",")
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(err)
		}
		err = cxlfork.SaveTraceCSV(f, wl.Functions, wl.RPS, wl.Duration, wl.Seed)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fail(err)
		}
		fmt.Printf("wrote trace to %s\n", *traceOut)
		return
	}
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			fail(err)
		}
		wl.Trace, err = cxlfork.LoadTraceCSV(f)
		f.Close()
		if err != nil {
			fail(err)
		}
	}

	load := fmt.Sprintf("%.0f RPS for %.0fs", *rps, *duration)
	if wl.Trace != nil {
		load = fmt.Sprintf("%d arrivals from %s", len(wl.Trace), *traceIn)
	}
	fmt.Printf("calibrating profiles and replaying %s with %s (mem budget %.0f%%)...\n",
		load, design, 100**memFrac)
	res, err := cxlfork.RunWorkload(cxlfork.DefaultConfig(), wl, nil)
	if err != nil {
		fail(err)
	}

	fmt.Printf("\ncompleted %d requests  P50 %v  P99 %v  mean %v\n",
		res.Completed, res.P50.Round(time.Millisecond), res.P99.Round(time.Millisecond),
		res.Mean.Round(time.Millisecond))
	fmt.Printf("warm starts %d, checkpoint restores %d, scratch cold starts %d\n",
		res.WarmStarts, res.ColdForks, res.ScratchCold)
	fmt.Printf("checkpoint evictions %d\n", res.Evictions)
	fmt.Println("\nper-function P99:")
	fns := make([]string, 0, len(res.PerFunction))
	for fn := range res.PerFunction {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	for _, fn := range fns {
		fmt.Printf("  %-10s %v\n", fn, res.PerFunction[fn].P99.Round(time.Millisecond))
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "cxlporter: %v\n", err)
	os.Exit(1)
}
