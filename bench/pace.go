package main

import (
	"math"
	"sort"
	"sync"
	"time"

	"keybin2/internal/xrand"
)

// pacedOp is one request of an open-loop phase: worker is the index of
// the goroutine running it, i the request's position in the schedule.
// It returns how many times the request was retried before it succeeded.
type pacedOp func(worker, i int) (retries int, err error)

// pacedSample is one issued request.
type pacedSample struct {
	due    time.Duration // when it was due, from the start of the phase
	lateMs float64       // due time → the request was actually issued
	latMs  float64       // due time → completion
	ok     bool
}

// pacedResult is what an open-loop phase measured: its requests in the
// order they were due.
type pacedResult struct {
	samples  []pacedSample
	retries  int64
	failed   int64
	firstErr error
}

// poissonSchedule returns the due times of n requests as offsets from
// the start of a phase: arrivals of a Poisson process of the given rate,
// drawn from rng, so the same seed gives the same schedule. Independent
// users arrive like this. Evenly spaced schedules do not: a 250/s and a
// 500/s stream fell due on the very same instants, and which of the two
// requests won that race was settled once per run, not per request —
// label latency came out near 0.45 ms on some runs and near 0.9 ms on
// others. With random gaps every phase relation between the streams is
// sampled in every run. The schedule is absolute: it never shifts
// because an earlier request was slow, which is what makes the loop open.
func poissonSchedule(rng *xrand.Stream, n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	var t float64 // seconds
	for i := range due {
		t += -math.Log(1-rng.Float64()) / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// runPaced issues one request at start plus every offset of due, until
// the schedule ends or stop is closed (nil: never). Worker w owns
// requests w, w+workers, w+2·workers, …: it waits until its next request
// is due and issues it itself, so no hand-off between goroutines sits
// inside the measurement — the workers are independent clients, each on
// a schedule of its own. A request is timed from when it was due, not
// from when it was issued: when one of a worker's requests stalls, the
// requests that fell due behind it start late, and that wait is counted.
func runPaced(start time.Time, due []time.Duration, workers int, stop <-chan struct{}, op pacedOp,
	rec *recorder, parent int, spanName string) pacedResult {
	parts := make([]pacedResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &parts[w]
			timer, err := newDueTimer()
			if err != nil {
				p.firstErr, p.failed = err, 1
				return
			}
			defer timer.close()
			for i := w; i < len(due); i += workers {
				at := start.Add(due[i])
				if err := timer.sleepUntil(at); err != nil && p.firstErr == nil {
					p.firstErr = err // the request still goes out, late
				}
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				retries, err := op(w, i)
				done := time.Now()
				rec.add(parent, spanName, t0, done)
				p.retries += int64(retries)
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
				}
				p.samples = append(p.samples, pacedSample{
					due: due[i], ok: err == nil,
					lateMs: float64(t0.Sub(at).Nanoseconds()) / 1e6,
					latMs:  float64(done.Sub(at).Nanoseconds()) / 1e6,
				})
			}
		}(w)
	}
	wg.Wait()

	var res pacedResult
	for _, p := range parts {
		res.samples = append(res.samples, p.samples...)
		res.retries += p.retries
		res.failed += p.failed
		if res.firstErr == nil {
			res.firstErr = p.firstErr
		}
	}
	sort.Slice(res.samples, func(i, j int) bool { return res.samples[i].due < res.samples[j].due })
	return res
}

// latencies returns the latencies of the requests that succeeded and how
// late every request was issued, both ascending.
func (r pacedResult) latencies() (latMs, lateMs []float64) {
	for _, s := range r.samples {
		if s.ok {
			latMs = append(latMs, s.latMs)
		}
		lateMs = append(lateMs, s.lateMs)
	}
	sort.Float64s(latMs)
	sort.Float64s(lateMs)
	return latMs, lateMs
}

// windowMedians returns each window's median latency, in schedule order;
// a stream's typical latency is the median of these. On a shared box
// interference comes in bursts of a second or a few, and latency
// distributions have long right tails, so a burst that slows a third of a
// phase's requests drags the plain median of all samples far up the good
// requests' tail. Windows vote instead: their median moves only when more
// than half of the windows are slow, which is what a real regression does
// and a burst does not. A trailing window shorter than half a window
// joins the one before it.
func (r pacedResult) windowMedians(window time.Duration) []float64 {
	if len(r.samples) == 0 {
		return nil
	}
	var medians, ok []float64
	flush := func() {
		if len(ok) > 0 {
			medians = append(medians, median(ok))
		}
		ok = ok[:0]
	}
	last := r.samples[len(r.samples)-1].due
	end := window // the current window is [end-window, end)
	for _, s := range r.samples {
		if s.due >= end && last-end >= window/2 {
			flush()
			for end <= s.due {
				end += window
			}
		}
		if s.ok {
			ok = append(ok, s.latMs)
		}
	}
	flush()
	return medians
}
