package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/query"
	"repro/internal/relation"
)

// clusterWorkload builds `clusters` independent subproblems over one
// table: attribute a_k belongs to cluster k alone, rows are assigned to
// exactly one cluster (their other attributes hold a sentinel no
// predicate matches), and query k is "UPDATE SET a_k = 1 WHERE a_k >=
// theta_k". Corrupting theta_k yields complaints confined to cluster
// k's rows and attribute, so the interaction graph decomposes into
// `clusters` connected components.
func clusterWorkload(t testing.TB, clusters, rowsPer int) (*relation.Table, []query.Query, []query.Query, []Complaint) {
	t.Helper()
	attrs := make([]string, clusters)
	for k := range attrs {
		attrs[k] = fmt.Sprintf("a%d", k)
	}
	sch := relation.MustSchema("T", attrs, "")
	d0 := relation.NewTable(sch)
	for k := 0; k < clusters; k++ {
		for i := 0; i < rowsPer; i++ {
			row := make([]float64, clusters)
			for j := range row {
				row[j] = -1000 // sentinel: matched by no predicate
			}
			row[k] = float64(i * 10)
			d0.MustInsert(row...)
		}
	}
	mk := func(theta float64) []query.Query {
		log := make([]query.Query, clusters)
		for k := 0; k < clusters; k++ {
			log[k] = query.NewUpdate(
				[]query.SetClause{{Attr: k, Expr: query.ConstExpr(1)}},
				query.AttrPred(k, query.GE, theta))
		}
		return log
	}
	dirty, truth := mk(10), mk(30)
	df, err := query.Replay(dirty, d0)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := query.Replay(truth, d0)
	if err != nil {
		t.Fatal(err)
	}
	complaints := ComplaintsFromDiff(df, tf, 1e-9)
	if len(complaints) == 0 {
		t.Fatal("cluster workload produced no complaints")
	}
	return d0, dirty, truth, complaints
}

// planFor runs the planning stage on raw inputs (what partitioned()
// does before scheduling).
func planFor(t testing.TB, d0 *relation.Table, log []query.Query, complaints []Complaint, candidates []int) []partition {
	t.Helper()
	width := d0.Schema().Width()
	final, err := query.Replay(log, d0)
	if err != nil {
		t.Fatal(err)
	}
	if candidates == nil {
		candidates = make([]int, len(log))
		for i := range log {
			candidates[i] = i
		}
	}
	return planPartitions(complaints, FullImpact(log, width), final, candidates)
}

func TestPlanPartitionsConnectedComponents(t *testing.T) {
	d0, dirty, _, complaints := clusterWorkload(t, 3, 4)
	parts := planFor(t, d0, dirty, complaints, nil)
	if len(parts) != 3 {
		t.Fatalf("got %d partitions, want 3: %+v", len(parts), parts)
	}
	seenComplaints := 0
	for k, p := range parts {
		if len(p.candidates) != 1 || p.candidates[0] != k {
			t.Errorf("partition %d candidates = %v, want [%d]", k, p.candidates, k)
		}
		seenComplaints += len(p.complaintIdx)
	}
	if seenComplaints != len(complaints) {
		t.Errorf("partitions cover %d complaints, want %d", seenComplaints, len(complaints))
	}
}

func TestPlanPartitionsSharedCandidateUnion(t *testing.T) {
	// Two otherwise-independent clusters plus one bridging query that
	// writes both attributes: every complaint's candidate set contains
	// the bridge, so the components must union into one partition.
	d0, dirty, _, complaints := clusterWorkload(t, 2, 4)
	bridge := query.NewUpdate([]query.SetClause{
		{Attr: 0, Expr: query.ConstExpr(-1000)},
		{Attr: 1, Expr: query.ConstExpr(-1000)},
	}, query.AttrPred(0, query.LE, -5000)) // matches nothing, but impacts both attrs
	log := append(query.CloneLog(dirty), bridge)
	parts := planFor(t, d0, log, complaints, nil)
	if len(parts) != 1 {
		t.Fatalf("got %d partitions, want 1 (shared candidate must union): %+v", len(parts), parts)
	}
	want := []int{0, 1, 2}
	got := parts[0].candidates
	if len(got) != len(want) {
		t.Fatalf("unioned candidates = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("unioned candidates = %v, want %v", got, want)
		}
	}
}

func TestPlanPartitionsRespectsCandidateFilter(t *testing.T) {
	// Restricting the global candidate set (Options.Candidates / query
	// slicing) restricts the interaction sets: with cluster 1's query
	// excluded, its complaints have no candidates and attach to the
	// first partition rather than forming their own.
	d0, dirty, _, complaints := clusterWorkload(t, 2, 4)
	parts := planFor(t, d0, dirty, complaints, []int{0})
	if len(parts) != 1 {
		t.Fatalf("got %d partitions, want 1: %+v", len(parts), parts)
	}
	if len(parts[0].complaintIdx) != len(complaints) {
		t.Errorf("orphan complaints dropped: partition holds %d of %d",
			len(parts[0].complaintIdx), len(complaints))
	}
	if len(parts[0].candidates) != 1 || parts[0].candidates[0] != 0 {
		t.Errorf("candidates = %v, want [0]", parts[0].candidates)
	}
}

func TestPartitionedMatchesSequential(t *testing.T) {
	// Every cluster is corrupted, so the joint reference must be the
	// Basic algorithm (inc-k=1 parameterizes one query at a time and
	// cannot fix four independent corruptions; partitioning actually
	// lifts that restriction, see TestPartitionedLiftsIncremental).
	d0, dirty, truth, complaints := clusterWorkload(t, 4, 4)
	base := Options{
		Algorithm:    Basic,
		TupleSlicing: true,
		QuerySlicing: true,
		TimeLimit:    30 * time.Second,
	}
	seq, err := Diagnose(d0, dirty, complaints, base)
	if err != nil {
		t.Fatal(err)
	}
	part := base
	part.Partition = 4
	par, err := Diagnose(d0, dirty, complaints, part)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Resolved || !par.Resolved {
		t.Fatalf("resolved: seq=%v par=%v (stats %+v / %+v)",
			seq.Resolved, par.Resolved, seq.Stats, par.Stats)
	}
	if par.Stats.Partitions != 4 {
		t.Errorf("Stats.Partitions = %d, want 4", par.Stats.Partitions)
	}
	if par.Stats.PartitionFallback {
		t.Error("independent clusters should not trigger the joint fallback")
	}
	if len(par.Changed) != len(seq.Changed) {
		t.Errorf("changed sets differ: seq=%v par=%v", seq.Changed, par.Changed)
	}
	// Both repairs must reproduce the true final state.
	truthFinal, _ := query.Replay(truth, d0)
	for name, rep := range map[string]*Repair{"seq": seq, "par": par} {
		final, err := query.Replay(rep.Log, d0)
		if err != nil {
			t.Fatal(err)
		}
		if diffs := relation.DiffTables(final, truthFinal, 1e-6); len(diffs) != 0 {
			t.Errorf("%s repair diverges from truth: %+v", name, diffs)
		}
	}
}

func TestPartitionedBasicAlgorithm(t *testing.T) {
	// Partitioning composes with the Basic (one-MILP) algorithm too:
	// each component gets its own small MILP.
	d0, dirty, _, complaints := clusterWorkload(t, 3, 4)
	rep, err := Diagnose(d0, dirty, complaints, Options{
		Algorithm: Basic,
		Partition: 2,
		TimeLimit: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resolved {
		t.Fatalf("not resolved: %+v", rep.Stats)
	}
	if rep.Stats.Partitions != 3 {
		t.Errorf("Stats.Partitions = %d, want 3", rep.Stats.Partitions)
	}
}

func TestPartitionedSingleComponentFallsThrough(t *testing.T) {
	// Figure 2's complaints share their candidate queries: planning must
	// find one component and fall through to the joint path, with
	// Stats.Partitions recording that planning ran.
	d0, dirty, truth := figure2()
	complaints := completeComplaints(t, d0, dirty, truth)
	rep, err := Diagnose(d0, dirty, complaints, Options{
		Algorithm:    Incremental,
		TupleSlicing: true,
		QuerySlicing: true,
		Partition:    4,
		TimeLimit:    30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resolved {
		t.Fatalf("not resolved: %+v", rep.Stats)
	}
	if rep.Stats.Partitions != 1 {
		t.Errorf("Stats.Partitions = %d, want 1", rep.Stats.Partitions)
	}
}

func TestApplyPartitionParamsConflict(t *testing.T) {
	// Defensive merge check: two synthetic "partitions" repairing the
	// same query to different values must surface a conflict pair, and
	// agreeing assignments must not.
	mkLog := func(theta float64) []query.Query {
		return []query.Query{query.NewUpdate(
			[]query.SetClause{{Attr: 0, Expr: query.ConstExpr(1)}},
			query.AttrPred(0, query.GE, theta))}
	}
	orig := mkLog(10)
	repA := &Repair{Log: mkLog(30), Changed: []int{0}}
	repB := &Repair{Log: mkLog(50), Changed: []int{0}}
	if _, conflicts := applyPartitionParams(orig, []*Repair{repA, repB}); len(conflicts) == 0 {
		t.Error("conflicting assignments not detected")
	} else if conflicts[0] != [2]int{0, 1} {
		t.Errorf("conflict pair = %v, want [0 1]", conflicts[0])
	}
	merged, conflicts := applyPartitionParams(orig, []*Repair{repA, repA})
	if len(conflicts) != 0 {
		t.Errorf("agreeing assignments flagged as conflict: %v", conflicts)
	}
	if got := merged[0].Params(); got[len(got)-1] != 30 {
		t.Errorf("merged params = %v, want theta 30", got)
	}
}

func TestMergeConflictFallsBackToJointSolve(t *testing.T) {
	// Force the conflict path end-to-end: hand mergePartitionRepairs two
	// fabricated repairs of the two partitions that disagree on query 0.
	// The merge must give up on the partitions, solve jointly, and still
	// produce a verified repair.
	d0, dirty, _, complaints := clusterWorkload(t, 2, 4)
	d := &diagnoser{
		opt: Options{Algorithm: Basic, TupleSlicing: true,
			Partition: 2, TimeLimit: 30 * time.Second}.withDefaults(),
		d0: d0, log: dirty, complaints: complaints,
		width: d0.Schema().Width(),
	}
	if err := d.replay(); err != nil {
		t.Fatal(err)
	}
	d.planPass(true)
	parts := planPartitions(d.complaints, d.full, d.dirtyFinal, d.candidates)
	if len(parts) != 2 {
		t.Fatalf("setup: want 2 partitions, got %d", len(parts))
	}
	bad := func(theta float64) *Repair {
		log := query.CloneLog(dirty)
		p := log[0].Params()
		p[len(p)-1] = theta
		if err := log[0].SetParams(p); err != nil {
			t.Fatal(err)
		}
		return &Repair{Log: log, Changed: []int{0}, Resolved: true}
	}
	rep, err := d.mergePartitionRepairs([]*Repair{bad(30), bad(50)})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Stats.PartitionFallback {
		t.Error("conflict did not set PartitionFallback")
	}
	if !rep.Resolved {
		t.Errorf("joint fallback failed to resolve: %+v", rep.Stats)
	}
}

// TestPartitionedLiftsIncremental documents a capability gain rather
// than a parity property: inc-k=1 jointly parameterizes one query per
// batch and therefore cannot repair several independently corrupted
// clusters, but the partition planner reduces each cluster to a
// single-corruption subproblem that inc-k=1 handles.
func TestPartitionedLiftsIncremental(t *testing.T) {
	d0, dirty, _, complaints := clusterWorkload(t, 3, 4)
	base := Options{
		Algorithm:    Incremental,
		TupleSlicing: true,
		QuerySlicing: true,
		TimeLimit:    30 * time.Second,
	}
	joint, err := Diagnose(d0, dirty, complaints, base)
	if err != nil {
		t.Fatal(err)
	}
	if joint.Resolved {
		t.Fatal("setup: joint inc-1 unexpectedly resolved a 3-corruption workload")
	}
	part := base
	part.Partition = 3
	parted, err := Diagnose(d0, dirty, complaints, part)
	if err != nil {
		t.Fatal(err)
	}
	if !parted.Resolved {
		t.Fatalf("partitioned inc-1 should resolve per-cluster corruptions: %+v", parted.Stats)
	}
}

// Property: partitioned and unpartitioned Diagnose agree on Resolved
// and resolve the same complaints across generated multi-cluster
// workloads with every cluster corrupted (Basic joint reference, which
// handles multiple corruptions).
func TestQuickPartitionedAgreesWithJoint(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		clusters := rng.Intn(3) + 2
		rowsPer := rng.Intn(3) + 3
		d0, dirty, truth := randomClusterWorkload(rng, clusters, rowsPer)
		df, err := query.Replay(dirty, d0)
		if err != nil {
			return true
		}
		tf, err := query.Replay(truth, d0)
		if err != nil {
			return true
		}
		complaints := ComplaintsFromDiff(df, tf, 1e-9)
		if len(complaints) == 0 {
			return true
		}
		base := Options{
			Algorithm:    Basic,
			TupleSlicing: true,
			QuerySlicing: true,
			TimeLimit:    20 * time.Second,
		}
		part := base
		part.Partition = 3
		joint, err1 := Diagnose(d0, dirty, complaints, base)
		parted, err2 := Diagnose(d0, dirty, complaints, part)
		if (err1 == nil) != (err2 == nil) {
			t.Logf("seed %d: error mismatch %v vs %v", seed, err1, err2)
			return false
		}
		if err1 != nil {
			return true
		}
		if joint.Resolved != parted.Resolved {
			t.Logf("seed %d: resolved mismatch joint=%v parted=%v (%+v / %+v)",
				seed, joint.Resolved, parted.Resolved, joint.Stats, parted.Stats)
			return false
		}
		// Both logs must resolve exactly the same complaints.
		jf, err := query.Replay(joint.Log, d0)
		if err != nil {
			return true
		}
		pf, err := query.Replay(parted.Log, d0)
		if err != nil {
			return true
		}
		for i, c := range complaints {
			one := []Complaint{c}
			if ComplaintsResolved(jf, one, 1e-6) != ComplaintsResolved(pf, one, 1e-6) {
				t.Logf("seed %d: complaint %d resolution differs", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// randomClusterWorkload is the randomized variant of clusterWorkload:
// per-cluster query counts, thresholds, and set constants vary, and one
// random query in every cluster is corrupted (so the complaint set
// decomposes into up to `clusters` components).
func randomClusterWorkload(rng *rand.Rand, clusters, rowsPer int) (*relation.Table, []query.Query, []query.Query) {
	attrs := make([]string, clusters)
	for k := range attrs {
		attrs[k] = fmt.Sprintf("a%d", k)
	}
	sch := relation.MustSchema("T", attrs, "")
	d0 := relation.NewTable(sch)
	for k := 0; k < clusters; k++ {
		for i := 0; i < rowsPer; i++ {
			row := make([]float64, clusters)
			for j := range row {
				row[j] = -1000
			}
			row[k] = float64(i*10 + rng.Intn(5))
			d0.MustInsert(row...)
		}
	}
	var log []query.Query
	byCluster := make([][]int, clusters)
	for k := 0; k < clusters; k++ {
		nq := rng.Intn(2) + 1
		for q := 0; q < nq; q++ {
			byCluster[k] = append(byCluster[k], len(log))
			log = append(log, query.NewUpdate(
				[]query.SetClause{{Attr: k, Expr: query.ConstExpr(float64(rng.Intn(50) + 100))}},
				query.AttrPred(k, query.GE, float64(rng.Intn(rowsPer*10)))))
		}
	}
	truth := query.CloneLog(log)
	for k := 0; k < clusters; k++ {
		corrupt := byCluster[k][rng.Intn(len(byCluster[k]))]
		p := log[corrupt].Params()
		p[rng.Intn(len(p))] = float64(rng.Intn(rowsPer * 10))
		_ = log[corrupt].SetParams(p)
	}
	return d0, log, truth
}

func TestLargestFirstOrder(t *testing.T) {
	parts := []partition{{size: 5}, {size: 9}, {size: 5}, {size: 20}, {size: 1}}
	want := []int{3, 1, 0, 2, 4} // ties (indices 0 and 2) keep index order
	if got := largestFirst(parts); !reflect.DeepEqual(got, want) {
		t.Errorf("largestFirst = %v, want %v", got, want)
	}
	if got := largestFirst(nil); len(got) != 0 {
		t.Errorf("largestFirst(nil) = %v, want empty", got)
	}
}

func TestPartitionSizeFloorsDegenerateFactors(t *testing.T) {
	if got := partitionSize(0, 0, 0); got != 1 {
		t.Errorf("partitionSize(0,0,0) = %d, want 1", got)
	}
	if got := partitionSize(10, 3, 2); got != 60 {
		t.Errorf("partitionSize(10,3,2) = %d, want 60", got)
	}
	// An orphan-only partition (no candidates) still ranks below a real
	// one over the same rows.
	if partitionSize(10, 0, 1) >= partitionSize(10, 2, 1) {
		t.Error("degenerate partition does not rank below a populated one")
	}
}

// planPartitions must stamp every partition with a positive size
// estimate consistent with the rows × candidates × complaints formula.
func TestPlanPartitionsSizes(t *testing.T) {
	d0, dirty, _, complaints := clusterWorkload(t, 3, 4)
	parts := planFor(t, d0, dirty, complaints, nil)
	if len(parts) != 3 {
		t.Fatalf("planned %d partitions, want 3", len(parts))
	}
	rows := d0.Len() // the cluster workload neither inserts nor deletes
	for i, p := range parts {
		want := partitionSize(rows, len(p.candidates), len(p.complaintIdx))
		if p.size != want || p.size <= 0 {
			t.Errorf("partition %d: size = %d, want %d (>0)", i, p.size, want)
		}
	}
}
