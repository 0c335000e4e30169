// External test: the diagnosis's own budget is its cancellation. A
// diagnosis that would run for tens of seconds returns within its
// TotalTimeLimit plus slack, names the limit that stopped each solve,
// and leaves no goroutine behind.
package core_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/testcheck"
	"repro/internal/workload"
)

// cancelSlack is how far past its budget a stopped diagnosis may
// return: one encode and one node LP past the deadline, under the race
// detector.
const cancelSlack = 2 * time.Second

// TestDiagnoseHonorsTotalTimeLimit runs Basic on the first pinned
// instance, a joint MILP that does not finish inside a 20 s solve
// limit, under a 1 ms TotalTimeLimit, serially and with speculative
// node workers, and the incremental scan with speculative node workers.
// Each returns within the budget plus slack with every stopped solve
// counted as a time-limit stop. A node limit of one, with no clock in
// play, is counted as a node-limit stop instead.
func TestDiagnoseHonorsTotalTimeLimit(t *testing.T) {
	in := pinnedInstances(t)[0]
	basic := core.Options{Algorithm: core.Basic, TupleSlicing: true, QuerySlicing: true,
		TimeLimit: 60 * time.Second}
	basicPar := basic
	basicPar.SolverParallel = 4
	inc := pinnedOptions()
	inc.SolverParallel = 4
	cases := []struct {
		name string
		opt  core.Options
	}{
		{"basic", basic},
		{"basic solver-parallel", basicPar},
		{"incremental solver-parallel", inc},
	}
	base := runtime.NumGoroutine()
	for _, c := range cases {
		opt := c.opt
		opt.TotalTimeLimit = time.Millisecond
		start := time.Now()
		rep, err := core.Diagnose(in.W.D0, in.Dirty, in.Complaints, opt)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		st := rep.Stats
		if elapsed > opt.TotalTimeLimit+cancelSlack {
			t.Errorf("%s: a 1ms diagnosis took %v", c.name, elapsed)
		}
		if rep.Resolved {
			t.Errorf("%s: resolved within 1ms; the instance no longer exercises the limit", c.name)
		}
		if st.NodeLimitStops != 0 || st.LPNumFails != 0 || st.LPIterLimits != 0 {
			t.Errorf("%s: stops by node limit %d, LP failures %d, LP iteration limits %d; want only the clock",
				c.name, st.NodeLimitStops, st.LPNumFails, st.LPIterLimits)
		}
		// Without a time-limit stop, the deadline must have ended the scan
		// before a solve, and the scan says so.
		if st.TimeLimitStops == 0 && st.LastStatus != "total-time-limit" {
			t.Errorf("%s: status %q with no time-limit stop counted", c.name, st.LastStatus)
		}
	}

	opt := basic
	opt.MaxNodes = 1
	rep, err := core.Diagnose(in.W.D0, in.Dirty, in.Complaints, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st := rep.Stats; st.NodeLimitStops != 1 || st.TimeLimitStops != 0 {
		t.Errorf("one-node limit: %d node and %d time limit stops, want 1 and 0", st.NodeLimitStops, st.TimeLimitStops)
	}
	testcheck.Goroutines(t, base)
}

// TestTimeLimitBoundsOneLP: a solve's time limit bounds the LP it is
// inside, not only the gaps between branch-and-bound nodes. Basic
// without tuple slicing on a 60-row, 30-statement generator log (seed 7,
// statement 0 corrupted) encodes every row against every candidate, and
// the root LP of that model runs for about 4 s on two cores: a solver
// that looks at the clock only between nodes returned after 4.2 s. Under
// a 1 s TimeLimit the diagnosis returns within 1.5 s, and the stop is
// counted as a time-limit stop.
func TestTimeLimitBoundsOneLP(t *testing.T) {
	if testing.Short() {
		t.Skip("solver-bound")
	}
	w, err := workload.Generate(workload.Config{ND: 60, Nq: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	in, err := w.MakeInstance(0)
	if err != nil {
		t.Fatal(err)
	}
	const limit = time.Second
	start := time.Now()
	rep, err := core.Diagnose(in.W.D0, in.Dirty, in.Complaints, core.Options{
		Algorithm: core.Basic, QuerySlicing: true, TimeLimit: limit})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > limit+limit/2 {
		t.Errorf("a %v solve limit returned after %v", limit, elapsed)
	}
	if st := rep.Stats; st.TimeLimitStops != 1 {
		t.Errorf("%d time-limit stops (%d node-limit), want 1", st.TimeLimitStops, st.NodeLimitStops)
	}
}
