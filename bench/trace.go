package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded by the bench around a call into a
// layer. Parent 0 means a root. Times are nanoseconds since the
// recorder was created, so a trace file reads the same on any clock.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Workload string `json:"workload"`
}

// recorder keeps spans in memory until the run ends. It records only
// while on: the traced run switches it per round to price its own cost,
// and an untraced run never turns it on, so end-to-end numbers carry one
// atomic load per call and nothing else.
type recorder struct {
	workload string
	epoch    time.Time
	on       atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

// add records a finished interval and returns its id (0 when off). The
// caller passes the same start/end it derives its metric from, so a
// metric and its span can never disagree.
func (r *recorder) add(parent int, name string, start, end time.Time) int {
	if !r.on.Load() {
		return 0
	}
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Workload: r.workload,
		StartNs: start.Sub(r.epoch).Nanoseconds(), EndNs: end.Sub(r.epoch).Nanoseconds(),
	})
	r.mu.Unlock()
	return id
}

// begin opens a span whose children need its id before it ends; finish
// it with end. Returns 0 when off.
func (r *recorder) begin(parent int, name string) int {
	now := time.Now()
	return r.add(parent, name, now, now)
}

func (r *recorder) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNs = now
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func (r *recorder) writeFile(path string) error {
	blob, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its children cover. Children may overlap each other
// (two senders inside one round) and may stick out of the parent (a
// child that ended after the parent was closed); the cover is the union
// of the children's intervals clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].StartNs < ch[j].StartNs })
		var covered int64
		edge := s.StartNs // everything before edge is already counted
		for _, c := range ch {
			lo, hi := c.StartNs, c.EndNs
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNs {
				hi = s.EndNs
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.EndNs - s.StartNs) - covered
	}
	return self
}

// selfByName sums self time and counts spans per span name: the table
// the traced run prints, where adjacent layers subtract.
func selfByName(spans []span) (selfNs map[string]int64, count map[string]int) {
	selfNs = make(map[string]int64)
	count = make(map[string]int)
	for id, ns := range selfTimes(spans) {
		name := spans[id-1].Name
		selfNs[name] += ns
		count[name]++
	}
	return selfNs, count
}
