package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a set of named metrics. All operations are safe for
// concurrent use; Get-or-create is idempotent, so packages grab their
// metrics lazily at first use without coordination. The zero Registry
// is NOT usable — call NewRegistry, or use the process-wide Default().
type Registry struct {
	mu     sync.Mutex
	order  []string // insertion order, for stable help lookup only
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	help   map[string]string
}

// NewRegistry returns an empty registry. Tests use fresh registries to
// isolate themselves from the process-wide Default().
func NewRegistry() *Registry {
	return &Registry{
		counts: map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
		help:   map[string]string{},
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that core, milp, dist,
// sched, and histstore publish into, and that qfix-worker's -telemetry
// endpoint and `qfix -metrics` render.
func Default() *Registry { return defaultRegistry }

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Add increments the counter. Nil-safe so callers can hold optional
// counters without guards.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 level (queue depth, inflight jobs).
type Gauge struct{ v atomic.Int64 }

// Set stores an absolute level.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the level by n (use negative n on release).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram accumulates float64 observations into fixed buckets with
// precomputed upper bounds. Buckets are cumulative at render time
// (Prometheus `le` semantics); internally each slot counts only its own
// interval so observation is a single atomic add.
type Histogram struct {
	uppers []float64 // ascending; implicit +Inf bucket after the last
	counts []atomic.Int64
	count  atomic.Int64
	// sum is a float64 accumulated by CAS on its bit pattern.
	sumBits atomic.Uint64
}

// logBuckets returns n upper bounds starting at start and multiplying
// by factor: start, start*factor, start*factor^2, … The default latency
// buckets (latencyBuckets) use start=100µs, factor=4, n=10, spanning
// 100µs to ~26s — wide enough for both a cache-hit microsolve and a
// budget-limited MILP search.
func logBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		return nil
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// latencyBuckets is the shared bucket layout for solve/wire latency
// histograms, in seconds: 100µs, 400µs, 1.6ms, 6.4ms, 25.6ms, 102ms,
// 410ms, 1.6s, 6.6s, 26s, +Inf.
func latencyBuckets() []float64 { return logBuckets(100e-6, 4, 10) }

// newHistogram builds a histogram with the given ascending upper bounds.
func newHistogram(uppers []float64) *Histogram {
	u := append([]float64(nil), uppers...)
	sort.Float64s(u)
	return &Histogram{uppers: u, counts: make([]atomic.Int64, len(u)+1)}
}

// Observe records one sample. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Find the first upper bound >= v; the slot after the last bound is
	// the implicit +Inf bucket.
	i := sort.SearchFloat64s(h.uppers, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		newBits := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, newBits) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Buckets returns the upper bounds and the CUMULATIVE count at each
// bound (Prometheus le semantics), plus the total including +Inf.
func (h *Histogram) Buckets() (uppers []float64, cumulative []int64, total int64) {
	if h == nil {
		return nil, nil, 0
	}
	uppers = append([]float64(nil), h.uppers...)
	cumulative = make([]int64, len(h.uppers))
	var run int64
	for i := range h.uppers {
		run += h.counts[i].Load()
		cumulative[i] = run
	}
	return uppers, cumulative, run + h.counts[len(h.uppers)].Load()
}

// Counter returns (creating if needed) the named counter. help is
// recorded on first creation and rendered as # HELP.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counts[name]; ok {
		return c
	}
	c := &Counter{}
	r.counts[name] = c
	r.register(name, help)
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{}
	r.gauges[name] = g
	r.register(name, help)
	return g
}

// Histogram returns (creating if needed) the named histogram with the
// given bucket upper bounds (used only on first creation; nil picks
// latencyBuckets).
func (r *Registry) Histogram(name, help string, uppers []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	if uppers == nil {
		uppers = latencyBuckets()
	}
	h := newHistogram(uppers)
	r.hists[name] = h
	r.register(name, help)
	return h
}

// register records name order and help; callers hold r.mu.
func (r *Registry) register(name, help string) {
	r.order = append(r.order, name)
	if help != "" {
		r.help[name] = help
	}
}

// snapshot returns the sorted names of each kind plus the help map,
// releasing the lock before any value loads.
func (r *Registry) snapshot() (counters, gauges, hists []string, help map[string]string,
	cm map[string]*Counter, gm map[string]*Gauge, hm map[string]*Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cm = make(map[string]*Counter, len(r.counts))
	gm = make(map[string]*Gauge, len(r.gauges))
	hm = make(map[string]*Histogram, len(r.hists))
	help = make(map[string]string, len(r.help))
	for k, v := range r.counts {
		counters = append(counters, k)
		cm[k] = v
	}
	for k, v := range r.gauges {
		gauges = append(gauges, k)
		gm[k] = v
	}
	for k, v := range r.hists {
		hists = append(hists, k)
		hm[k] = v
	}
	for k, v := range r.help {
		help[k] = v
	}
	sort.Strings(counters)
	sort.Strings(gauges)
	sort.Strings(hists)
	return
}

// fmtFloat renders a float the way Prometheus expects: integral values
// without an exponent, +Inf as "+Inf".
func fmtFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every metric in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as single
// samples, histograms as cumulative `_bucket{le=...}` series plus
// `_sum` and `_count`. Names are emitted in sorted order so the output
// is deterministic — the golden-output test depends on that.
func (r *Registry) WritePrometheus(w io.Writer) error {
	counters, gauges, hists, help, cm, gm, hm := r.snapshot()
	for _, name := range counters {
		if h := help[name]; h != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", name, h)
		}
		fmt.Fprintf(w, "# TYPE %s counter\n", name)
		fmt.Fprintf(w, "%s %d\n", name, cm[name].Value())
	}
	for _, name := range gauges {
		if h := help[name]; h != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", name, h)
		}
		fmt.Fprintf(w, "# TYPE %s gauge\n", name)
		fmt.Fprintf(w, "%s %d\n", name, gm[name].Value())
	}
	for _, name := range hists {
		if h := help[name]; h != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", name, h)
		}
		fmt.Fprintf(w, "# TYPE %s histogram\n", name)
		hist := hm[name]
		uppers, cum, total := hist.Buckets()
		for i, u := range uppers {
			fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, fmtFloat(u), cum[i])
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, total)
		fmt.Fprintf(w, "%s_sum %s\n", name, fmtFloat(hist.Sum()))
		fmt.Fprintf(w, "%s_count %d\n", name, total)
	}
	return nil
}

// jsonHistogram is the JSON rendering of one histogram.
type jsonHistogram struct {
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Uppers  []float64 `json:"uppers"`
	Buckets []int64   `json:"buckets"` // cumulative, aligned with Uppers
}

// WriteJSON renders every metric as one JSON object keyed by name
// (counters and gauges as numbers, histograms as objects), sorted by
// the encoder's map-key ordering. This backs /debug/vars and
// `qfix -metrics`.
func (r *Registry) WriteJSON(w io.Writer) error {
	counters, gauges, hists, _, cm, gm, hm := r.snapshot()
	out := make(map[string]any, len(counters)+len(gauges)+len(hists))
	for _, name := range counters {
		out[name] = cm[name].Value()
	}
	for _, name := range gauges {
		out[name] = gm[name].Value()
	}
	for _, name := range hists {
		uppers, cum, total := hm[name].Buckets()
		out[name] = jsonHistogram{Count: total, Sum: hm[name].Sum(), Uppers: uppers, Buckets: cum}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
