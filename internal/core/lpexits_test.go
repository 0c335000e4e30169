package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/encode"
	"repro/internal/milp"
)

// TestLPExitsCounted pins the LP exits in Stats: the Figure 2 encoding
// solved with one-iteration LPs stops on an iteration limit, attempt's
// fold of a solve counts it, mergeStats sums it across batches,
// partitions and remote jobs, and the verbose solver line prints it.
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

	d.mergeStats(st)
	d.mergeStats(Stats{LPNumFails: 2, LPIterLimits: 3})
	if d.stats.LPIterLimits != st.LPIterLimits+3 || d.stats.LPNumFails != st.LPNumFails+2 {
		t.Errorf("merged LP exits = %d numerical, %d iteration limits; want %d and %d",
			d.stats.LPNumFails, d.stats.LPIterLimits, st.LPNumFails+2, st.LPIterLimits+3)
	}
	line := d.stats.Format(true)[0]
	if want := fmt.Sprintf("LP exits: %d numerical failures, %d iteration limits",
		st.LPNumFails+2, st.LPIterLimits+3); !strings.Contains(line, want) {
		t.Errorf("solver line %q does not say %q", line, want)
	}

	// An unlimited solve of the same encoding takes neither exit.
	var clean Stats
	res, _ = enc.SolveOpts(milp.Options{NoPresolve: true})
	clean.addSolve(res)
	if clean.LPNumFails != 0 || clean.LPIterLimits != 0 {
		t.Errorf("unlimited solve: %d numerical failures, %d iteration limits", clean.LPNumFails, clean.LPIterLimits)
	}
}
