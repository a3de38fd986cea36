package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them in the Prometheus text
// exposition format. All instrument operations are lock-free atomics;
// registration and scraping take locks, so the hot path (Inc/Add/Set/
// Observe on an already-registered instrument) never contends with
// scrapes beyond cache traffic.
//
// Registration is idempotent: registering a name that already exists with
// the same kind and label names returns the existing family's instrument.
// Re-registering a name with a different kind or label arity panics —
// that is a programming error, not an operational condition.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	collect  []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// OnCollect registers fn to run at the start of every scrape, before the
// families are rendered. Components use it to copy externally-owned state
// (queue lengths, WAL positions, mpi.Stats snapshots) into gauges without
// paying for the copy on the hot path.
func (r *Registry) OnCollect(fn func()) {
	r.mu.Lock()
	r.collect = append(r.collect, fn)
	r.mu.Unlock()
}

const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// family is one named metric with fixed label names and one series per
// distinct label-value tuple.
type family struct {
	name, help, kind string
	labels           []string
	buckets          []float64 // histograms only

	mu     sync.RWMutex
	series map[string]*series
}

type series struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
}

func (r *Registry) family(name, help, kind string, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s(%d labels), was %s(%d labels)",
				name, kind, len(labels), f.kind, len(f.labels)))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels,
		buckets: buckets, series: make(map[string]*series)}
	r.families[name] = f
	return f
}

// seriesFor returns (creating if needed) the series for the given label
// values.
func (f *family) seriesFor(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok = f.series[key]; ok {
		return s
	}
	s = &series{labelValues: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		s.counter = &Counter{}
	case kindGauge:
		s.gauge = &Gauge{}
	case kindHistogram:
		s.hist = newHistogram(f.buckets)
	}
	f.series[key] = s
	return s
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the series to stay monotone; this is
// not enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetInt stores an integer value.
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Add increments the gauge by delta (CAS loop; safe concurrently).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket latency/size distribution. Buckets are
// cumulative upper bounds in ascending order; an implicit +Inf bucket
// catches everything beyond the last bound. Observations are two atomic
// adds — no locks, no allocation.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomicFloat
	count  atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// atomicFloat is a float64 with atomic Add, via CAS on the bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(delta float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// DefBuckets is the default latency histogram layout in seconds: 100µs to
// 10s, roughly 2.5× steps — wide enough for fsyncs and refits alike.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, kindCounter, nil, nil).seriesFor(nil).counter
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, kindGauge, nil, nil).seriesFor(nil).gauge
}

// Histogram registers (or fetches) an unlabeled histogram with the given
// cumulative bucket bounds (nil = DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.family(name, help, kindHistogram, nil, buckets).seriesFor(nil).hist
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) CounterVec {
	return CounterVec{r.family(name, help, kindCounter, labels, nil)}
}

// With returns the counter for the given label values, creating it on
// first use.
func (v CounterVec) With(labelValues ...string) *Counter {
	return v.f.seriesFor(labelValues).counter
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) GaugeVec {
	return GaugeVec{r.family(name, help, kindGauge, labels, nil)}
}

// With returns the gauge for the given label values.
func (v GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.seriesFor(labelValues).gauge
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers (or fetches) a labeled histogram family
// (nil buckets = DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return HistogramVec{r.family(name, help, kindHistogram, labels, buckets)}
}

// With returns the histogram for the given label values.
func (v HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.seriesFor(labelValues).hist
}

// --- exposition ----------------------------------------------------------

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, series sorted by label
// values, histograms expanded into cumulative _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	hooks := append([]func(){}, r.collect...)
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	for _, fn := range hooks {
		fn()
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		f.mu.RLock()
		sers := make([]*series, 0, len(f.series))
		for _, s := range f.series {
			sers = append(sers, s)
		}
		f.mu.RUnlock()
		sort.Slice(sers, func(i, j int) bool {
			return strings.Join(sers[i].labelValues, "\xff") < strings.Join(sers[j].labelValues, "\xff")
		})
		for _, s := range sers {
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, renderLabels(f.labels, s.labelValues, "", ""), s.counter.Value())
			case kindGauge:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, renderLabels(f.labels, s.labelValues, "", ""), formatFloat(s.gauge.Value()))
			case kindHistogram:
				h := s.hist
				cum := int64(0)
				for i, bound := range h.bounds {
					cum += h.counts[i].Load()
					fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name,
						renderLabels(f.labels, s.labelValues, "le", formatFloat(bound)), cum)
				}
				cum += h.counts[len(h.bounds)].Load()
				fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name,
					renderLabels(f.labels, s.labelValues, "le", "+Inf"), cum)
				fmt.Fprintf(bw, "%s_sum%s %s\n", f.name,
					renderLabels(f.labels, s.labelValues, "", ""), formatFloat(h.Sum()))
				fmt.Fprintf(bw, "%s_count%s %d\n", f.name,
					renderLabels(f.labels, s.labelValues, "", ""), h.Count())
			}
		}
	}
	return bw.Flush()
}

// Handler serves GET /metrics; any other method gets 405.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET")
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// renderLabels renders {a="x",b="y"} plus an optional extra pair (the
// histogram le label); returns "" for no labels at all.
func renderLabels(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ParseExposition parses Prometheus text-format output into a flat map of
// series identity ("name" or `name{label="value",...}`, exactly as
// rendered) to value. Comment and blank lines are skipped. It understands
// what WritePrometheus emits — enough for clients to diff two scrapes —
// not every corner of the full exposition grammar. Its line buffer
// starts small and grows to the longest line (at most 1 MiB), so a parse
// allocates a multiple of its input, not a fixed 64 KiB.
func ParseExposition(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value is the last space-separated field; the series identity
		// is everything before it (label values may themselves contain
		// spaces, so split from the right).
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("obs: unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: bad value in line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}
