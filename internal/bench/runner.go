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
	// Quick: smallest meaningful sizes; seconds per figure. Selected by
	// `qfix-bench -scale quick` and this package's shape tests.
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

// pick returns the sizing of scale s: quick, def or large.
func pick[T any](s Scale, quick, def, large T) T {
	return [...]T{quick, def, large}[s]
}

func (r *Runner) reps() int {
	if r.Reps > 0 {
		return r.Reps
	}
	return pick(r.Scale, 1, 3, 5)
}

func (r *Runner) timeLimit() time.Duration {
	if r.TimeLimit > 0 {
		return r.TimeLimit
	}
	return pick(r.Scale, 10*time.Second, 30*time.Second, 120*time.Second)
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
		{"solver", "MILP solver stack: sequential vs speculative parallel branch-and-bound", (*Runner).FigSolver},
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

// sweep fills t with one row per x label and series name, x-major: the
// mean of r.reps() points from at(x, s, rep), where x indexes xs and s
// indexes series. note, when set, gives each row its Note.
func (r *Runner) sweep(t *Table, xs, series []string, at func(x, s, rep int) (point, error),
	note func(x int, pts []point) string) (*Table, error) {
	for x, xl := range xs {
		for s, name := range series {
			var pts []point
			for rep := 0; rep < r.reps(); rep++ {
				p, err := at(x, s, rep)
				if err != nil {
					return nil, err
				}
				pts = append(pts, p)
			}
			var n string
			if note != nil {
				n = note(x, pts)
			}
			r.addRow(t, name, xl, pts, n)
		}
	}
	return t, nil
}

// addRow appends the mean of pts to t as the row (series, x) and logs it.
func (r *Runner) addRow(t *Table, series, x string, pts []point, note string) {
	row := avg(pts)
	row.Series, row.X, row.Note = series, x, note
	t.Rows = append(t.Rows, row)
	r.logf("%s %s %s=%s: %.1fms f1=%.2f solved=%.2f %s", t.ID, series, t.XLabel, x, row.TimeMS, row.F1, row.Solved, note)
}

// labels formats each x value of a sweep as its row label.
func labels[X any](format string, xs []X) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf(format, x)
	}
	return out
}

// repair corrupts the queries at corrupt in w, diagnoses the instance
// with its full complaint set, and scores the repair.
func (r *Runner) repair(w *workload.Workload, opts core.Options, corrupt ...int) (point, error) {
	in, err := w.MakeInstance(corrupt...)
	if err != nil {
		return point{}, err
	}
	return r.measure(in, in.Complaints, opts), nil
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
	p := point{ms: ms(time.Since(start))}
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

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// avg is the mean row of points: latency, accuracy, solved share, and
// the per-phase milliseconds from the same Stats timers the CLI's -v
// breakdown prints, so a BENCH row and a qfix run describe one
// diagnosis the same way.
func avg(points []point) Row {
	var row Row
	if len(points) == 0 {
		return row
	}
	for _, p := range points {
		row.TimeMS += p.ms
		row.Precision += p.acc.Precision
		row.Recall += p.acc.Recall
		row.F1 += p.acc.F1
		if p.resolved {
			row.Solved++
		}
		row.PlanMS += ms(p.stats.PlanTime)
		row.EncodeMS += ms(p.stats.EncodeTime)
		row.SolveMS += ms(p.stats.SolveTime)
		row.MergeMS += ms(p.stats.MergeTime)
	}
	n := float64(len(points))
	row.TimeMS /= n
	row.Precision /= n
	row.Recall /= n
	row.F1 /= n
	row.Solved /= n
	row.PlanMS /= n
	row.EncodeMS /= n
	row.SolveMS /= n
	row.MergeMS /= n
	return row
}
