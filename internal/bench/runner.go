// Package bench reproduces every table and figure of the QFix evaluation
// (§7, Figures 4 and 6–10, plus the Figure 2 case study quoted in §7.4).
// Each driver regenerates the paper's workload at a configurable scale,
// runs the relevant algorithms, and reports the same series the paper
// plots: wall-clock latency and precision/recall/F1.
//
// Scales: the paper evaluates on CPLEX, which is orders of magnitude
// faster than this repository's stdlib-only MILP solver, so the default
// scale shrinks ND/Nq proportionally (each driver states its sizes;
// README.md, "Benchmarks", lists the experiments). The shape of every
// result — which algorithm wins, where basic collapses, how slicing
// scales — is preserved; absolute numbers are not comparable.
package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// Scale selects experiment sizing.
type Scale int

// Scales.
const (
	// Quick: smallest meaningful sizes; seconds per figure. Used by
	// `go test -bench` smoke benchmarks.
	Quick Scale = iota
	// Default: the sizes each driver states; minutes for the full suite.
	Default
	// Large: closest to the paper that remains tractable without CPLEX.
	Large
)

// ParseScale maps a flag string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "quick":
		return Quick, nil
	case "default", "":
		return Default, nil
	case "large", "paper":
		return Large, nil
	}
	return Default, fmt.Errorf("bench: unknown scale %q (quick|default|large)", s)
}

// Runner executes experiments.
type Runner struct {
	Scale Scale
	Seed  int64
	// Reps averages each point over this many seeds (paper: 20).
	// Zero picks 1 (Quick) / 3 (Default) / 5 (Large).
	Reps int
	// TimeLimit per MILP solve (the paper's 1000s CPLEX budget). Zero
	// picks 10s (Quick) / 30s (Default) / 120s (Large).
	TimeLimit time.Duration
	// Out, when set, receives progress lines.
	Out io.Writer
}

func (r *Runner) reps() int {
	if r.Reps > 0 {
		return r.Reps
	}
	switch r.Scale {
	case Quick:
		return 1
	case Large:
		return 5
	default:
		return 3
	}
}

func (r *Runner) timeLimit() time.Duration {
	if r.TimeLimit > 0 {
		return r.TimeLimit
	}
	switch r.Scale {
	case Quick:
		return 10 * time.Second
	case Large:
		return 120 * time.Second
	default:
		return 30 * time.Second
	}
}

func (r *Runner) logf(format string, args ...interface{}) {
	if r.Out != nil {
		fmt.Fprintf(r.Out, format+"\n", args...)
	}
}

// Experiment descriptor.
type Experiment struct {
	ID    string
	Title string
	Run   func(r *Runner) (*Table, error)
}

// Experiments lists every reproducible figure in evaluation order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig4", "Log size vs execution time: basic vs single-query parameterization", (*Runner).Fig4},
		{"fig6a", "Multiple corruptions: performance of basic and slicing variants", (*Runner).Fig6Multi},
		{"fig6b", "Single corruption: incremental with/without tuple slicing, batch sizes", (*Runner).Fig6Single},
		{"fig6c", "Query-type workloads: INSERT/DELETE/UPDATE-only repair cost", (*Runner).Fig6QueryType},
		{"fig7a", "Attribute count vs time: value of query/attribute slicing", (*Runner).Fig7Attrs},
		{"fig7b", "Database size vs time on a wide table", (*Runner).Fig7DBSize},
		{"fig8a", "Database size vs time on a narrow table, old vs recent corruption", (*Runner).Fig8DBSize},
		{"fig8b", "Query clause types: Constant/Relative SET x Point/Range WHERE", (*Runner).Fig8ClauseType},
		{"fig8c", "Incomplete complaint sets: performance", (*Runner).Fig8Incomplete},
		{"fig8d", "Attribute skew vs time", (*Runner).Fig8Skew},
		{"fig8e", "Predicate dimensionality vs time", (*Runner).Fig8Dims},
		{"fig9", "OLTP benchmarks (TPC-C, TATP): latency vs corruption age", (*Runner).Fig9OLTP},
		{"fig10", "DecTree baseline vs QFix: performance and accuracy", (*Runner).Fig10DecTree},
		{"ex2", "Figure 2 case study: end-to-end repair of the tax example", (*Runner).Example2},
		{"ablation", "Implementation ablations: folding, param windows, warm LP starts", (*Runner).Ablation},
		{"solver", "MILP solver stack: presolve and parallel branch-and-bound on big-M models", (*Runner).FigSolver},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// point is one measured repair run.
type point struct {
	ms       float64
	acc      workload.Accuracy
	resolved bool
	stats    core.Stats
}

// measure runs one diagnosis and scores it. Unresolved runs score zero
// accuracy (the paper's treatment of timeouts/infeasibility in §7.2).
func (r *Runner) measure(in *workload.Instance, complaints []core.Complaint, opts core.Options) point {
	if opts.TimeLimit == 0 {
		opts.TimeLimit = r.timeLimit()
	}
	if opts.TotalTimeLimit == 0 {
		opts.TotalTimeLimit = 4 * r.timeLimit()
	}
	start := time.Now()
	rep, err := core.Diagnose(in.W.D0, in.Dirty, complaints, opts)
	elapsed := time.Since(start)
	p := point{ms: float64(elapsed.Microseconds()) / 1000}
	if err != nil || rep == nil {
		return p
	}
	p.stats = rep.Stats
	p.resolved = rep.Resolved
	if rep.Resolved {
		if acc, err := in.Evaluate(rep.Log); err == nil {
			p.acc = acc
		}
	}
	return p
}

// phases aggregates the mean per-phase milliseconds across points —
// the same Stats timers the CLI's -v breakdown prints, so a BENCH row
// and a qfix run describe one diagnosis the same way.
func phases(points []point) (plan, encode, solve, merge float64) {
	if len(points) == 0 {
		return 0, 0, 0, 0
	}
	n := float64(len(points))
	for _, p := range points {
		plan += float64(p.stats.PlanTime.Microseconds()) / 1000
		encode += float64(p.stats.EncodeTime.Microseconds()) / 1000
		solve += float64(p.stats.SolveTime.Microseconds()) / 1000
		merge += float64(p.stats.MergeTime.Microseconds()) / 1000
	}
	return plan / n, encode / n, solve / n, merge / n
}

// withPhases stamps a row with the mean phase breakdown of its points.
func withPhases(row Row, points []point) Row {
	row.PlanMS, row.EncodeMS, row.SolveMS, row.MergeMS = phases(points)
	return row
}

// avg aggregates repetition points into a table row.
func avg(points []point) (ms float64, acc workload.Accuracy, okFrac float64) {
	if len(points) == 0 {
		return 0, workload.Accuracy{}, 0
	}
	n := float64(len(points))
	for _, p := range points {
		ms += p.ms
		acc.Precision += p.acc.Precision
		acc.Recall += p.acc.Recall
		acc.F1 += p.acc.F1
		if p.resolved {
			okFrac++
		}
	}
	ms /= n
	acc.Precision /= n
	acc.Recall /= n
	acc.F1 /= n
	okFrac /= n
	return ms, acc, okFrac
}
