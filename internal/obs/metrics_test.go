package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if c2 := r.Counter("jobs_total", "ignored"); c2 != c {
		t.Fatalf("re-registering returned a different counter")
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	// Nil metrics are safe no-ops.
	var nc *Counter
	nc.Inc()
	var ng *Gauge
	ng.Set(1)
	var nh *Histogram
	nh.Observe(1)
	if nc.Value() != 0 || ng.Value() != 0 || nh.Count() != 0 {
		t.Fatalf("nil metrics returned non-zero values")
	}
}

func TestLogBuckets(t *testing.T) {
	b := logBuckets(100e-6, 4, 10)
	if len(b) != 10 {
		t.Fatalf("len = %d", len(b))
	}
	if math.Abs(b[0]-100e-6) > 1e-12 {
		t.Fatalf("b[0] = %g", b[0])
	}
	for i := 1; i < len(b); i++ {
		if math.Abs(b[i]/b[i-1]-4) > 1e-9 {
			t.Fatalf("ratio b[%d]/b[%d] = %g, want 4", i, i-1, b[i]/b[i-1])
		}
	}
	// Top bucket ~26s: big enough for a budget-limited MILP solve.
	if b[9] < 20 || b[9] > 30 {
		t.Fatalf("b[9] = %g, want ~26s", b[9])
	}
	if logBuckets(0, 4, 10) != nil || logBuckets(1, 1, 10) != nil || logBuckets(1, 4, 0) != nil {
		t.Fatalf("degenerate logBuckets should return nil")
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 10, 100})
	// On-boundary values land in the bucket whose upper bound equals the
	// value (le semantics: v <= upper).
	for _, v := range []float64{0.5, 1, 1.0001, 10, 99, 100, 101, 1e9} {
		h.Observe(v)
	}
	uppers, cum, total := h.Buckets()
	if len(uppers) != 3 {
		t.Fatalf("uppers = %v", uppers)
	}
	// le=1: {0.5, 1} -> 2; le=10: +{1.0001, 10} -> 4; le=100: +{99, 100} -> 6; +Inf: 8.
	if cum[0] != 2 || cum[1] != 4 || cum[2] != 6 || total != 8 {
		t.Fatalf("cumulative = %v total = %d, want [2 4 6] 8", cum, total)
	}
	if h.Count() != 8 {
		t.Fatalf("Count = %d", h.Count())
	}
	wantSum := 0.5 + 1 + 1.0001 + 10 + 99 + 100 + 101 + 1e9
	if math.Abs(h.Sum()-wantSum) > 1e-6 {
		t.Fatalf("Sum = %g, want %g", h.Sum(), wantSum)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c", "")
			g := r.Gauge("g", "")
			h := r.Histogram("h", "", nil)
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(j) * 1e-4)
			}
		}()
	}
	// Concurrent renders while writers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			r.WritePrometheus(&buf)
			r.WriteJSON(&buf)
		}
	}()
	wg.Wait()
	if got := r.Counter("c", "").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("g", "").Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	if got := r.Histogram("h", "", nil).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("qfix_worker_jobs_total", "Jobs handled.").Add(3)
	r.Gauge("qfix_worker_inflight", "Jobs currently solving.").Set(1)
	h := r.Histogram("qfix_worker_job_seconds", "Job wall time.", []float64{0.001, 1})
	// Exactly representable values so the _sum line is stable.
	h.Observe(0.0005)
	h.Observe(0.25)
	h.Observe(2)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP qfix_worker_jobs_total Jobs handled.",
		"# TYPE qfix_worker_jobs_total counter",
		"qfix_worker_jobs_total 3",
		"# HELP qfix_worker_inflight Jobs currently solving.",
		"# TYPE qfix_worker_inflight gauge",
		"qfix_worker_inflight 1",
		"# HELP qfix_worker_job_seconds Job wall time.",
		"# TYPE qfix_worker_job_seconds histogram",
		`qfix_worker_job_seconds_bucket{le="0.001"} 1`,
		`qfix_worker_job_seconds_bucket{le="1"} 2`,
		`qfix_worker_job_seconds_bucket{le="+Inf"} 3`,
		"qfix_worker_job_seconds_sum 2.2505",
		"qfix_worker_job_seconds_count 3",
	}, "\n") + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("prometheus output:\n%s\nwant:\n%s", got, want)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(2)
	r.Gauge("b", "").Set(-1)
	r.Histogram("c_seconds", "", []float64{1}).Observe(0.5)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, buf.String())
	}
	if string(out["a_total"]) != "2" {
		t.Fatalf("a_total = %s", out["a_total"])
	}
	if string(out["b"]) != "-1" {
		t.Fatalf("b = %s", out["b"])
	}
	var hist jsonHistogram
	if err := json.Unmarshal(out["c_seconds"], &hist); err != nil {
		t.Fatal(err)
	}
	if hist.Count != 1 || hist.Sum != 0.5 || len(hist.Buckets) != 1 || hist.Buckets[0] != 1 {
		t.Fatalf("histogram = %+v", hist)
	}
}

func TestDefaultRegistryIsSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatalf("Default() not a singleton")
	}
}
