// Package obs is the observability layer: a lightweight hierarchical
// tracer and a process-wide metrics registry, both stdlib-only, that the
// diagnosis pipeline (core, milp, simplex, sched, dist, histstore)
// publishes into. Neither side is load-bearing for correctness — every
// consumer works identically with a nil span and an untouched registry —
// which is what lets the instrumentation ride the hot paths: a disabled
// tracer costs one nil check per phase, and metrics are single atomic
// operations.
//
// Tracing: a Span records one timed phase (name, attributes, start,
// duration) and its children. Spans form a tree rooted at NewTrace;
// every method is nil-safe, so call sites thread a possibly-nil span
// without guards and pay near-zero cost when tracing is off. Trees
// export as JSONL (WriteJSONL) and as the Chrome trace_event format
// (WriteChromeTrace, loadable in chrome://tracing and Perfetto), and
// Structure renders the timing-free shape — the artifact the engine's
// determinism tests pin across -solver-parallel settings. Both exporters
// refuse a tree that holds a span never ended, naming it by its path
// from the root: a Start without its End is caught on every traced run
// (the engine's trace tests, `qfix -trace`, qfixd's TraceDir) instead
// of exporting the span's live age as its duration.
//
// Metrics: a Registry holds named counters, gauges, and fixed-bucket
// log-scale histograms, rendered as Prometheus text exposition format
// (WritePrometheus) and JSON (WriteJSON). internal/telemetry serves
// them over HTTP (qfixd's -admin and qfix-worker's -telemetry
// endpoints); obs itself imports no HTTP stack, so the engine packages
// that publish into it keep net/http out of the qfix CLI. Default()
// is the process-wide registry every subsystem publishes into.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Attr is one span attribute. Values should be small scalars (ints,
// floats, strings, bools); they are serialized as-is by the exporters.
type Attr struct {
	Key   string
	Value any
}

// Span is one timed phase of a trace: a name, attributes, a start time
// and duration, and child spans. A nil *Span is the disabled tracer:
// every method no-ops (returning nil children), so instrumented code
// threads spans unconditionally.
//
// Concurrency: a span's children may be created from the goroutine that
// owns the span; sibling subtrees may then be filled in concurrently by
// different goroutines (each goroutine owning its own subtree), which is
// exactly how the engine's partition scan uses it — spans for
// concurrent work are pre-created in deterministic (index) order by the
// coordinating goroutine, so the tree SHAPE never depends on scheduling.
// SetAttr/End on one span and Start on the same span are safe to
// interleave across goroutines.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	attrs    []Attr
	dur      time.Duration
	ended    bool
	children []*Span
}

// NewTrace starts a new root span. The returned span is the handle the
// caller threads through the pipeline (core.Options.Trace) and later
// exports; End it before exporting.
func NewTrace(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// Start creates, starts, and returns a child span. On a nil receiver it
// returns nil, which is what makes a disabled trace free: the nil flows
// through every downstream Start/SetAttr/End without allocation.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End stops the span and returns its duration. Safe on nil (returns 0)
// and idempotent: the first End wins, so a deferred safety End cannot
// stretch a span that was closed explicitly.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.dur = time.Since(s.start)
		s.ended = true
	}
	return s.dur
}

// SetAttr attaches (or overwrites) an attribute. Nil-safe.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// Name returns the span's name (empty for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the span's recorded duration (its live age when not
// yet ended; 0 for nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return time.Since(s.start)
	}
	return s.dur
}

// Children returns a snapshot of the span's children in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Attrs returns a snapshot of the span's attributes in set order.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// WellNested reports whether every descendant's time interval lies
// within its parent's (with tol of slack for clock granularity). Spans
// that were never ended fail the check. It is the invariant the trace
// tests assert over real diagnosis trees.
func (s *Span) WellNested(tol time.Duration) bool {
	if s == nil {
		return true
	}
	s.mu.Lock()
	ended, start, dur := s.ended, s.start, s.dur
	kids := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	if !ended {
		return false
	}
	end := start.Add(dur)
	for _, c := range kids {
		c.mu.Lock()
		cEnded, cStart, cDur := c.ended, c.start, c.dur
		c.mu.Unlock()
		if !cEnded {
			return false
		}
		if cStart.Add(tol).Before(start) || cStart.Add(cDur).After(end.Add(tol)) {
			return false
		}
		if !c.WellNested(tol) {
			return false
		}
	}
	return true
}

// Structure renders the timing-free shape of the tree: one line per
// span in depth-first order, indented by depth, with the sorted
// attribute keys. Durations and attribute values are deliberately
// excluded, so two runs of the same deterministic computation produce
// byte-identical structures even though their timings differ — the
// property the engine pins across -solver-parallel settings.
func (s *Span) Structure() string {
	if s == nil {
		return ""
	}
	var b []byte
	s.structure(&b, 0)
	return string(b)
}

func (s *Span) structure(b *[]byte, depth int) {
	s.mu.Lock()
	name := s.name
	keys := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		keys[i] = a.Key
	}
	kids := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	sort.Strings(keys)
	for i := 0; i < depth; i++ {
		*b = append(*b, "  "...)
	}
	*b = append(*b, name...)
	if len(keys) > 0 {
		*b = append(*b, fmt.Sprintf(" %v", keys)...)
	}
	*b = append(*b, '\n')
	for _, c := range kids {
		c.structure(b, depth+1)
	}
}
