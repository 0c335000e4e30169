package bench

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/query"
)

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 15 {
		t.Errorf("expected 15 experiments (every figure + ex2 + solver), got %d", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if _, ok := Lookup(e.ID); !ok {
			t.Errorf("Lookup(%s) failed", e.ID)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup accepted unknown id")
	}
}

func TestParseScale(t *testing.T) {
	for in, want := range map[string]Scale{
		"quick": Quick, "default": Default, "": Default, "large": Large, "paper": Large,
	} {
		got, err := ParseScale(in)
		if err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseScale("bogus"); err == nil {
		t.Error("bogus scale accepted")
	}
}

func TestExample2RunsAndResolves(t *testing.T) {
	r := &Runner{Scale: Quick, Seed: 1}
	table, err := r.Example2()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 1 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	row := table.Rows[0]
	if row.Solved != 1 || row.F1 < 0.99 {
		t.Errorf("example 2 not fully repaired: %+v", row)
	}
	out := table.String()
	if !strings.Contains(out, "ex2") || !strings.Contains(out, "qfix") {
		t.Errorf("table rendering missing content:\n%s", out)
	}
}

func TestFig9QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := &Runner{Scale: Quick, Seed: 1}
	table, err := r.Fig9OLTP()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) < 4 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	// Every OLTP point should solve with perfect accuracy at this scale,
	// and older corruptions should not be cheaper than fresh ones by a
	// large margin (they scan more batches).
	for _, row := range table.Rows {
		if row.Solved < 1 {
			t.Errorf("%s age=%s unsolved", row.Series, row.X)
		}
		if row.F1 < 0.99 {
			t.Errorf("%s age=%s f1=%v", row.Series, row.X, row.F1)
		}
	}
}

func TestFig10QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := &Runner{Scale: Quick, Seed: 1}
	table, err := r.Fig10DecTree()
	if err != nil {
		t.Fatal(err)
	}
	var qfixF1, decF1 float64
	var n int
	for _, row := range table.Rows {
		switch row.Series {
		case "qfix":
			qfixF1 += row.F1
			n++
		case "dectree":
			decF1 += row.F1
		}
	}
	if n == 0 {
		t.Fatal("no rows")
	}
	// The paper's headline comparison: QFix repairs exactly, DecTree
	// repairs poorly.
	if qfixF1/float64(n) < 0.9 {
		t.Errorf("qfix mean F1 = %v", qfixF1/float64(n))
	}
	if decF1 >= qfixF1 {
		t.Errorf("dectree (%v) should not beat qfix (%v)", decF1, qfixF1)
	}
}

func TestPartitionOutcomeMatchesJoint(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode (the joint Basic MILP needs seconds of solver time; " +
			"race overhead can push it past its limit and flake the parity check)")
	}
	// The partition engine's contract on the bench workload: with 8
	// independent complaint clusters, Partition=4 must produce exactly
	// the joint path's Resolved/per-complaint outcome (and actually
	// decompose into 8 partitions rather than falling back). One query
	// per cluster keeps the joint Basic MILP solvable inside the time
	// limit — at larger sizes the joint encoding times out,
	// which is precisely the scaling wall the partition engine removes.
	w, corruptIdx, err := PartitionClusters(8, 4, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(corruptIdx) != 8 {
		t.Fatalf("corrupted %d queries, want 8", len(corruptIdx))
	}
	in, err := w.MakeInstance(corruptIdx...)
	if err != nil {
		t.Fatal(err)
	}
	base := core.Options{Algorithm: core.Basic, TupleSlicing: true, QuerySlicing: true,
		TimeLimit: 120 * time.Second}
	joint, err := core.Diagnose(w.D0, in.Dirty, in.Complaints, base)
	if err != nil {
		t.Fatal(err)
	}
	part := base
	part.Partition = 4
	parted, err := core.Diagnose(w.D0, in.Dirty, in.Complaints, part)
	if err != nil {
		t.Fatal(err)
	}
	if joint.Resolved != parted.Resolved {
		t.Fatalf("resolved mismatch: joint=%v parted=%v (%+v / %+v)",
			joint.Resolved, parted.Resolved, joint.Stats, parted.Stats)
	}
	if parted.Stats.Partitions != 8 {
		t.Errorf("Stats.Partitions = %d, want 8", parted.Stats.Partitions)
	}
	if parted.Stats.PartitionFallback {
		t.Error("independent clusters triggered the joint fallback")
	}
	jf, err := query.Replay(joint.Log, w.D0)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := query.Replay(parted.Log, w.D0)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range in.Complaints {
		one := []core.Complaint{c}
		if core.ComplaintsResolved(jf, one, 1e-6) != core.ComplaintsResolved(pf, one, 1e-6) {
			t.Errorf("complaint %d resolution differs between joint and partitioned", i)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "x", Title: "t", XLabel: "n", Caption: "c"}
	tb.Rows = append(tb.Rows, Row{Series: "s", X: "1", TimeMS: 1.234, Precision: 1, Recall: 0.5, F1: 0.66, Solved: 1, Note: "hi"})
	out := tb.String()
	for _, want := range []string{"## x — t", "series", "time_ms", "hi", "0.660"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestAvgEmpty(t *testing.T) {
	ms, acc, ok := avg(nil)
	if ms != 0 || ok != 0 || acc.F1 != 0 {
		t.Error("avg(nil) not zero")
	}
}

// TestSolverFigureDeterministic runs the solver figure at quick scale
// repeatedly and requires every deterministic column — series, cell,
// accuracy, solved share and the solver counters in the note — to match
// the first run's, row for row: a map order or a race that reaches a
// figure's rows shows up as a diff. A map of up to eight keys starts its
// iteration at a random one of eight slots, so a two-key map leaves
// insertion order in only one run of eight; forty runs give such an
// order a 0.5% chance of hiding.
func TestSolverFigureDeterministic(t *testing.T) {
	runs := 40
	if testing.Short() {
		runs = 10
	}
	var first []Row
	for run := 0; run < runs; run++ {
		table, err := (&Runner{Scale: Quick, Seed: 1}).FigSolver()
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]Row, len(table.Rows))
		for i, r := range table.Rows {
			rows[i] = Row{Series: r.Series, X: r.X, Precision: r.Precision, Recall: r.Recall,
				F1: r.F1, Solved: r.Solved, Note: r.Note}
		}
		if run == 0 {
			first = rows
		} else if !reflect.DeepEqual(rows, first) {
			t.Fatalf("run %d: deterministic columns differ from run 0:\n got %+v\nwant %+v", run, rows, first)
		}
	}
}
