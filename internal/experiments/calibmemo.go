package experiments

import (
	"errors"
	"maps"
	"sync"

	"cxlfork/internal/faas"
	"cxlfork/internal/params"
)

// calibMemoCap bounds the calibration memo. One entry is a handful of
// Measures (a few hundred bytes), so the full memo stays in kilobytes.
const calibMemoCap = 256

// calibKey identifies one function's calibration. MeasureFunction
// treats its scenario list as a set, so scens is a bitmask over
// AllScenarios. p is the full parameter set, not a canonical subset: a
// field calibration ignores costs a miss, never a wrong answer.
type calibKey struct {
	p     params.Params
	spec  faas.Spec
	scens uint8
}

// scenarioMask folds a scenario list into its AllScenarios bitmask.
// Scenarios outside AllScenarios are dropped, as MeasureFunction
// ignores them.
func scenarioMask(scens []Scenario) uint8 {
	var mask uint8
	for _, s := range scens {
		for i, known := range AllScenarios {
			if s == known {
				mask |= 1 << i
			}
		}
	}
	return mask
}

// errCalibPanicked is what waiters on an in-flight calibration see
// when the computing goroutine panicked instead of returning.
var errCalibPanicked = errors.New("experiments: calibration panicked")

// calibEntry is one memoized (or in-flight) calibration. done closes
// once fm and err are final.
type calibEntry struct {
	done chan struct{}
	fm   *FnMeasurement
	err  error
}

// calibMemo is a bounded, FIFO-evicting memo of calibrations.
// Concurrent misses on one key compute once; errors are never kept.
type calibMemo struct {
	mu       sync.Mutex
	entries  map[calibKey]*calibEntry
	fifo     []calibKey // insertion order, oldest first
	computed int64      // calibrations actually run, for tests
}

// newCalibMemo returns an empty memo.
func newCalibMemo() *calibMemo {
	return &calibMemo{entries: make(map[calibKey]*calibEntry)}
}

// calibration is the process-wide memo behind MeasureAll.
var calibration = newCalibMemo()

// get returns k's calibration, running compute on a miss. Every caller
// receives its own copy of the result.
func (c *calibMemo) get(k calibKey, compute func() (*FnMeasurement, error)) (*FnMeasurement, error) {
	c.mu.Lock()
	e, hit := c.entries[k]
	if !hit {
		e = &calibEntry{done: make(chan struct{})}
		if len(c.fifo) == calibMemoCap {
			delete(c.entries, c.fifo[0])
			c.fifo = c.fifo[1:]
		}
		c.entries[k] = e
		c.fifo = append(c.fifo, k)
		c.computed++
	}
	c.mu.Unlock()

	if hit {
		<-e.done
	} else {
		c.fill(k, e, compute)
	}
	if e.err != nil {
		return nil, e.err
	}
	return cloneMeasurement(e.fm), nil
}

// fill runs compute into e and publishes it. A failed calibration is
// dropped from the memo, so the next caller retries it.
func (c *calibMemo) fill(k calibKey, e *calibEntry, compute func() (*FnMeasurement, error)) {
	defer func() {
		if e.fm == nil && e.err == nil {
			e.err = errCalibPanicked
		}
		if e.err != nil {
			c.forget(k, e)
		}
		close(e.done)
	}()
	e.fm, e.err = compute()
}

// forget removes k from the memo if it still maps to e.
func (c *calibMemo) forget(k calibKey, e *calibEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[k] != e {
		return
	}
	delete(c.entries, k)
	for i, fk := range c.fifo {
		if fk == k {
			c.fifo = append(c.fifo[:i], c.fifo[i+1:]...)
			break
		}
	}
}

// cloneMeasurement copies fm deeply enough that a caller mutating its
// copy cannot reach the memoized one: Measure is a plain value, so
// cloning the map suffices.
func cloneMeasurement(fm *FnMeasurement) *FnMeasurement {
	out := *fm
	out.ByScen = maps.Clone(fm.ByScen)
	return &out
}

// measureMemo is MeasureFunction behind the process-wide memo.
func measureMemo(p params.Params, spec faas.Spec, scens []Scenario) (*FnMeasurement, error) {
	k := calibKey{p: p, spec: spec, scens: scenarioMask(scens)}
	return calibration.get(k, func() (*FnMeasurement, error) {
		return MeasureFunction(p, spec, scens)
	})
}
