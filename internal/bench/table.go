package bench

import (
	"fmt"
	"strings"
)

// Row is one measured point of a figure: a series name, an x value, the
// mean latency, and the mean accuracy across repetitions.
type Row struct {
	Series    string
	X         string
	TimeMS    float64
	Precision float64
	Recall    float64
	F1        float64
	// Solved is the fraction of repetitions that produced a verified
	// repair (timeouts and infeasibility count against it, as in §7.2).
	Solved float64
	// Per-phase mean wall time (ms) from Stats' phase timers, so the
	// BENCH_*.json rows say WHERE the latency went, not just how much
	// there was. Zero-valued phases are omitted from the JSON.
	PlanMS   float64 `json:",omitempty"`
	EncodeMS float64 `json:",omitempty"`
	SolveMS  float64 `json:",omitempty"`
	MergeMS  float64 `json:",omitempty"`
	// Note carries figure-specific extras (model rows, batches, ...).
	Note string
}

// Machine is where and from what a table was measured — what a
// committed BENCH_*.json needs for its numbers to mean anything later.
type Machine struct {
	Cores      int
	GOMAXPROCS int
	GoVersion  string
	Commit     string // git rev-parse --short HEAD, "-dirty" if the tree has changes; or "unknown"
}

// Table is the reproduction of one paper figure.
type Table struct {
	ID      string
	Title   string
	XLabel  string
	Rows    []Row
	Caption string
	// Machine is stamped by qfix-bench -json on the tables it writes.
	Machine Machine
}

// String renders an aligned text table matching the series the paper
// plots.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n", t.ID, t.Title)
	if t.Caption != "" {
		fmt.Fprintf(&b, "%s\n", t.Caption)
	}
	w := func(s string, n int) string {
		if len(s) >= n {
			return s
		}
		return s + strings.Repeat(" ", n-len(s))
	}
	sw, xw := 10, len(t.XLabel)
	for _, r := range t.Rows {
		if len(r.Series) > sw {
			sw = len(r.Series)
		}
		if len(r.X) > xw {
			xw = len(r.X)
		}
	}
	fmt.Fprintf(&b, "%s  %s  %10s  %9s  %7s  %7s  %7s  %s\n",
		w("series", sw), w(t.XLabel, xw), "time_ms", "precision", "recall", "f1", "solved", "note")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%s  %s  %10.1f  %9.3f  %7.3f  %7.3f  %7.2f  %s\n",
			w(r.Series, sw), w(r.X, xw), r.TimeMS, r.Precision, r.Recall, r.F1, r.Solved, r.Note)
	}
	return b.String()
}
