package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs"
)

// The traced run records one span around every call the harness makes
// into a layer's public function, with internal/obs as the recorder:
// spans stay in memory as a tree (parent links), the children of one
// "diagnosis" span share its diag id, and the tree is written once, as
// JSONL, when the run ends. Spans inside the program are a later issue.

// timed runs f under a child span of parent and returns how long it took.
func timed(parent *obs.Span, name string, f func()) time.Duration {
	sp := parent.Start(name)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	sp.End()
	return d
}

func writeSpans(path string, root *obs.Span) error {
	if !root.WellNested(time.Millisecond) {
		return fmt.Errorf("trace: spans are not well nested")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteJSONL(f, root); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's duration minus the part
// its children cover.
func selfTimes(s *obs.Span, into map[string]time.Duration) {
	self := s.Duration()
	for _, c := range s.Children() {
		self -= c.Duration()
		selfTimes(c, into)
	}
	if self < 0 {
		self = 0 // concurrent children (two daemon callers) cover more than the parent
	}
	into[s.Name()] += self
}

// reportSelfTimes prints the self time of every span name, for the
// README's layer table.
func reportSelfTimes(workload string, root *obs.Span) {
	self := map[string]time.Duration{}
	selfTimes(root, self)
	names := make([]string, 0, len(self))
	var all time.Duration
	for name, d := range self {
		names = append(names, name)
		all += d
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, name := range names {
		if share := 100 * self[name].Seconds() / all.Seconds(); share >= 0.1 {
			fmt.Fprintf(os.Stderr, "%s: self time %-34s %8.1f ms %5.1f%%\n", workload, name, ms(self[name]), share)
		}
	}
}
