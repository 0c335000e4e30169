package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// jsonlSpan is the JSONL export shape: one span per line, parent linkage
// by id, times in microseconds relative to the root's start.
type jsonlSpan struct {
	ID      int            `json:"id"`
	Parent  int            `json:"parent"` // -1 for the root
	Depth   int            `json:"depth"`
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// WriteJSONL writes the span tree as JSON Lines: one object per span in
// depth-first order with id/parent linkage, suitable for jq-style
// analysis. Times are microseconds relative to the root's start. A tree
// holding a span that was never ended is refused (see checkEnded) and
// nothing is written.
func WriteJSONL(w io.Writer, root *Span) error {
	if root == nil {
		return nil
	}
	if err := checkEnded(root, ""); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	nextID := 0
	var walk func(s *Span, parent, depth int) error
	walk = func(s *Span, parent, depth int) error {
		id := nextID
		nextID++
		rec := jsonlSpan{
			ID:      id,
			Parent:  parent,
			Depth:   depth,
			Name:    s.Name(),
			StartUS: s.start.Sub(root.start).Microseconds(),
			DurUS:   s.Duration().Microseconds(),
		}
		if attrs := s.Attrs(); len(attrs) > 0 {
			rec.Attrs = make(map[string]any, len(attrs))
			for _, a := range attrs {
				rec.Attrs[a.Key] = a.Value
			}
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
		for _, c := range s.Children() {
			if err := walk(c, id, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(root, -1, 0)
}

// chromeEvent is one Chrome trace_event "complete" (ph="X") event.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`  // µs since root start
	Dur  int64          `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the span tree in the Chrome trace_event JSON
// array format (loadable in chrome://tracing and ui.perfetto.dev).
// Spans become ph="X" complete events. Concurrent siblings (partitions,
// remote jobs) overlap in time, which the single-lane rendering would
// collapse, so tids are assigned greedily: each span takes the lowest
// lane whose previous occupant has already finished, giving parallel
// work visually distinct rows. Like WriteJSONL, it refuses a tree
// holding a span that was never ended.
func WriteChromeTrace(w io.Writer, root *Span) error {
	if root == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	if err := checkEnded(root, ""); err != nil {
		return err
	}
	var events []chromeEvent
	placeSpan(root, 0, &events, root)
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// checkEnded returns an error naming, by its path from the root (e.g.
// "qfix/diagnose/batch"), the first span in depth-first order that was
// never ended. Such a span's Duration is its live age, not a
// measurement, and a call site that forgot its End leaves exactly that
// behind; prefix is the path of s's parent plus a slash.
func checkEnded(s *Span, prefix string) error {
	path := prefix + s.Name()
	s.mu.Lock()
	ended := s.ended
	s.mu.Unlock()
	if !ended {
		return fmt.Errorf("obs: span %s was never ended", path)
	}
	for _, c := range s.Children() {
		if err := checkEnded(c, path+"/"); err != nil {
			return err
		}
	}
	return nil
}

// placeSpan emits s in the given lane and recurses into its children.
// Nested spans always overlap their parent, so nesting alone must not
// force a new lane; only overlap with a SIBLING already occupying a
// lane does. Sequential children therefore share the parent's lane,
// while overlapping siblings (concurrent partitions, remote jobs) take
// the lowest lane free at their start time.
func placeSpan(s *Span, lane int, events *[]chromeEvent, root *Span) {
	ts := s.start.Sub(root.start).Microseconds()
	dur := s.Duration().Microseconds()
	ev := chromeEvent{Name: s.Name(), Ph: "X", TS: ts, Dur: dur, PID: 1, TID: lane}
	if attrs := s.Attrs(); len(attrs) > 0 {
		ev.Args = make(map[string]any, len(attrs))
		for _, a := range attrs {
			ev.Args[a.Key] = a.Value
		}
	}
	*events = append(*events, ev)
	// sibEnd tracks, per lane, when the last sibling placed there ends.
	sibEnd := map[int]int64{}
	for _, c := range s.Children() {
		cts := c.start.Sub(root.start).Microseconds()
		cdur := c.Duration().Microseconds()
		chosen := lane
		if end, used := sibEnd[lane]; used && cts < end {
			for l := lane + 1; ; l++ {
				if end, used := sibEnd[l]; !used || cts >= end {
					chosen = l
					break
				}
			}
		}
		sibEnd[chosen] = cts + cdur
		placeSpan(c, chosen, events, root)
	}
}

// WriteTrace writes the trace in the format implied by the filename:
// JSONL when the name ends in .jsonl or .ndjson, Chrome trace_event
// JSON otherwise. This is the dispatch `qfix -trace <file>` uses.
func WriteTrace(w io.Writer, root *Span, filename string) error {
	lower := strings.ToLower(filename)
	if strings.HasSuffix(lower, ".jsonl") || strings.HasSuffix(lower, ".ndjson") {
		return WriteJSONL(w, root)
	}
	return WriteChromeTrace(w, root)
}

// Walk visits every span in the tree depth-first, calling fn with each
// span and its depth. Nil-safe.
func (s *Span) Walk(fn func(sp *Span, depth int)) {
	if s == nil {
		return
	}
	var rec func(sp *Span, depth int)
	rec = func(sp *Span, depth int) {
		fn(sp, depth)
		for _, c := range sp.Children() {
			rec(c, depth+1)
		}
	}
	rec(s, 0)
}

// Count returns the number of spans in the tree (0 for nil).
func (s *Span) Count() int {
	n := 0
	s.Walk(func(*Span, int) { n++ })
	return n
}

// String renders the tree with durations for debugging: Structure's
// shape plus per-span wall time.
func (s *Span) String() string {
	if s == nil {
		return "<nil trace>"
	}
	var b strings.Builder
	s.Walk(func(sp *Span, depth int) {
		fmt.Fprintf(&b, "%s%s %s\n", strings.Repeat("  ", depth), sp.Name(), sp.Duration())
	})
	return b.String()
}
