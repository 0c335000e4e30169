package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/encode"
	"repro/internal/milp"
)

// TestLPExitsCounted pins the LP exits and limit stops in Stats: the
// Figure 2 encoding solved with one-iteration LPs stops on an iteration
// limit, with a one-node limit on the node limit and with an expired
// time limit on the time limit; attempt's fold of a solve counts each
// by cause, mergeStats sums them across partitions and remote jobs, and
// the verbose solver line prints them.
func TestLPExitsCounted(t *testing.T) {
	d0, dirty, truth := figure2()
	d := diagnoser{complaints: completeComplaints(t, d0, dirty, truth)}
	enc, err := encode.Encode(d0, dirty, d.encComplaints(), encode.Options{ParamQueries: map[int]bool{0: true}})
	if err != nil {
		t.Fatal(err)
	}
	opt := milp.Options{NoPresolve: true}
	opt.LP.MaxIters = 1
	res, _ := enc.SolveOpts(opt)

	var st Stats
	st.addSolve(res)
	if st.LPIterLimits == 0 || st.LPIterLimits != res.LPIterLimits || st.LPNumFails != res.LPNumFails {
		t.Fatalf("one-iteration LPs: Stats counts %d iteration limits and %d numerical failures, the solve %d and %d",
			st.LPIterLimits, st.LPNumFails, res.LPIterLimits, res.LPNumFails)
	}
	if st.LastStatus != milp.Limit.String() {
		t.Errorf("LastStatus = %q, want %q", st.LastStatus, milp.Limit.String())
	}
	if st.NodeLimitStops != 0 || st.TimeLimitStops != 0 {
		t.Errorf("an LP exit counted as %d node and %d time limit stops", st.NodeLimitStops, st.TimeLimitStops)
	}

	// One node, then an expired clock: each stop lands on its own cause.
	res, _ = enc.SolveOpts(milp.Options{NoPresolve: true, MaxNodes: 1})
	st.addSolve(res)
	res, _ = enc.SolveOpts(milp.Options{NoPresolve: true, TimeLimit: time.Nanosecond})
	st.addSolve(res)
	if st.NodeLimitStops != 1 || st.TimeLimitStops != 1 {
		t.Fatalf("node-limited then time-limited solve: %d node and %d time limit stops, want 1 and 1",
			st.NodeLimitStops, st.TimeLimitStops)
	}

	d.mergeStats(st)
	d.mergeStats(Stats{LPNumFails: 2, LPIterLimits: 3, NodeLimitStops: 4, TimeLimitStops: 5})
	if d.stats.LPIterLimits != st.LPIterLimits+3 || d.stats.LPNumFails != st.LPNumFails+2 {
		t.Errorf("merged LP exits = %d numerical, %d iteration limits; want %d and %d",
			d.stats.LPNumFails, d.stats.LPIterLimits, st.LPNumFails+2, st.LPIterLimits+3)
	}
	if d.stats.NodeLimitStops != 5 || d.stats.TimeLimitStops != 6 {
		t.Errorf("merged limit stops = %d node, %d time; want 5 and 6", d.stats.NodeLimitStops, d.stats.TimeLimitStops)
	}
	line := d.stats.Format(true)[0]
	if want := fmt.Sprintf("LP exits: %d numerical failures, %d iteration limits; limit stops: 5 node, 6 time",
		st.LPNumFails+2, st.LPIterLimits+3); !strings.Contains(line, want) {
		t.Errorf("solver line %q does not say %q", line, want)
	}

	// An unlimited solve of the same encoding takes neither exit.
	var clean Stats
	res, _ = enc.SolveOpts(milp.Options{NoPresolve: true})
	clean.addSolve(res)
	if clean.LPNumFails != 0 || clean.LPIterLimits != 0 || clean.NodeLimitStops != 0 || clean.TimeLimitStops != 0 {
		t.Errorf("unlimited solve: %d numerical failures, %d iteration limits, %d node and %d time limit stops",
			clean.LPNumFails, clean.LPIterLimits, clean.NodeLimitStops, clean.TimeLimitStops)
	}
}
