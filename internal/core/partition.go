package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/sched"
)

// This file is the planning half of the plan/solve engine. FullImpact
// (Definition 7) already tells us which queries can possibly influence
// which attributes of the final state, so complaints whose
// relevant-query candidate sets are disjoint are provably independent
// subproblems: no parameter change that resolves one can touch the
// attributes the other complains about. planPartitions splits the
// complaint set into the connected components of that interaction
// graph; solvePartitions runs each component as an independent
// sub-diagnosis on the scan's goroutines; mergePartitionRepairs stitches
// the per-partition repairs back into one log repair, falling back to a
// joint solve whenever independence turns out to be violated at merge
// or verification time.

// partition is one independent subproblem: a subset of the complaints
// plus the union of their relevant-query candidate sets.
type partition struct {
	complaintIdx []int // indices into the diagnoser's complaint slice
	candidates   []int // log indices, sorted ascending
	// size estimates the partition's MILP as rows × candidate queries ×
	// complaints — the largest-first dispatch key. It only needs to
	// rank partitions of one plan against each other, so the shared
	// rows factor stays in for intuition but never changes the order.
	size int
}

// partitionSize estimates one partition's MILP size. Each factor is
// floored at 1 so degenerate partitions (orphan complaints with no
// candidate queries) still rank deterministically instead of collapsing
// to zero.
func partitionSize(rows, candidates, complaints int) int {
	if rows < 1 {
		rows = 1
	}
	if candidates < 1 {
		candidates = 1
	}
	if complaints < 1 {
		complaints = 1
	}
	return rows * candidates * complaints
}

// largestFirst returns the dispatch order that starts the biggest
// partitions first, shortening the critical path: with more partitions
// than scan workers, round-robin start order can leave the one huge MILP
// at the back of the queue, making wall-clock ≈ queue wait + its solve.
// Ties keep index order (stable sort), so the order — and therefore the
// scheduler's start sequence — is deterministic for a given plan.
// Result adjudication stays in submission (index) order regardless; see
// sched.OnPool.
func largestFirst(parts []partition) []int {
	order := make([]int, len(parts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return parts[order[a]].size > parts[order[b]].size
	})
	return order
}

// interactionSets computes, for each complaint, the set of global
// candidates whose full impact intersects that complaint's A(c). These
// are the edges of the complaint–query interaction graph.
func interactionSets(complaints []Complaint, full []query.AttrSet,
	dirtyFinal *relation.Table, candidates []int) [][]int {
	sets := make([][]int, len(complaints))
	for ci, c := range complaints {
		ac := complaintAttrSet(c, dirtyFinal)
		for _, qi := range candidates {
			if full[qi].Intersects(ac) {
				sets[ci] = append(sets[ci], qi)
			}
		}
	}
	return sets
}

// unionFind is a plain weighted union-find over 0..n-1.
type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]] // path halving
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
}

// planPartitions splits the complaints into connected components of the
// interaction graph: two complaints are connected iff their candidate
// sets share a query (transitively). Components that share a candidate
// are therefore always unioned — the correctness requirement — because
// sharing a candidate *is* the graph's edge relation. Complaints with
// an empty candidate set (nothing can influence their attributes, or
// the complaint is already satisfied by the dirty state) attach to the
// first partition so they stay under the same verification umbrella
// instead of spawning unsolvable singletons.
//
// Partitions are ordered by their smallest complaint index, so planning
// is deterministic for a given input.
func planPartitions(complaints []Complaint, full []query.AttrSet,
	dirtyFinal *relation.Table, candidates []int) []partition {
	sets := interactionSets(complaints, full, dirtyFinal, candidates)

	uf := newUnionFind(len(complaints))
	owner := make(map[int]int) // query index -> first complaint seen with it
	for ci, set := range sets {
		for _, qi := range set {
			if first, ok := owner[qi]; ok {
				uf.union(first, ci)
			} else {
				owner[qi] = ci
			}
		}
	}

	byRoot := make(map[int]*partition)
	var order []int
	var orphans []int // complaints with no candidate queries
	for ci := range complaints {
		if len(sets[ci]) == 0 {
			orphans = append(orphans, ci)
			continue
		}
		root := uf.find(ci)
		p, ok := byRoot[root]
		if !ok {
			p = &partition{}
			byRoot[root] = p
			order = append(order, root)
		}
		p.complaintIdx = append(p.complaintIdx, ci)
	}

	parts := make([]partition, 0, len(order))
	for _, root := range order {
		p := byRoot[root]
		var cands []int
		for _, ci := range p.complaintIdx {
			cands = append(cands, sets[ci]...)
		}
		parts = append(parts, partition{
			complaintIdx: p.complaintIdx,
			candidates:   sortedUnique(cands),
		})
	}
	if len(orphans) > 0 {
		if len(parts) == 0 {
			parts = append(parts, partition{})
		}
		parts[0].complaintIdx = append(orphans, parts[0].complaintIdx...)
		sort.Ints(parts[0].complaintIdx)
	}
	rows := dirtyFinal.Len()
	for i := range parts {
		parts[i].size = partitionSize(rows, len(parts[i].candidates), len(parts[i].complaintIdx))
	}
	return parts
}

// sortedUnique sorts a list of query indices and drops repeats, in place.
func sortedUnique(idx []int) []int {
	slices.Sort(idx)
	return slices.Compact(idx)
}

// partitioned is the partition-parallel solve path. handled=false means
// planning found fewer than two components and the caller should fall
// through to the joint path (the single-component stats still record
// that planning ran).
func (d *diagnoser) partitioned() (*Repair, bool, error) {
	parts := planPartitions(d.complaints, d.full, d.dirtyFinal, d.candidates)
	d.stats.Partitions = len(parts)
	if len(parts) < 2 {
		return nil, false, nil
	}
	reps, err := d.solvePartitions(parts)
	if err != nil {
		return nil, true, err
	}
	rep, err := d.mergePartitionRepairs(reps)
	return rep, true, err
}

// solvePartitions runs every partition as an independent sub-diagnosis
// on Options.Partition goroutines, started largest-first (by the
// planner's size estimate) so the biggest MILP never sits at the back of
// the queue defining the critical path. Each sub-diagnosis sees the full
// log and initial state but only its partition's complaints, with
// repair candidates pinned to the partition's candidate set; nested
// partitioning is disabled so the concurrency budget is spent at the
// partition level. Results are still adjudicated in plan (index) order,
// so the chosen repair is independent of the start order.
//
// Each partition is packaged as a self-contained Subproblem carrying
// this diagnosis's plan. With Options.PartitionSolver set it is
// dispatched through the hook (the distributed coordinator's entry
// point); otherwise, and for a job the hook declines (ErrDeclined), it
// solves in process on that plan (Subproblem.Solve), so no partition
// re-runs the replay + FullImpact pass and Stats.PlanPasses across a
// locally partitioned diagnosis totals exactly 1. The outer deadline
// reaches each job as its TotalTimeLimit.
func (d *diagnoser) solvePartitions(parts []partition) ([]*Repair, error) {
	sub := d.opt
	sub.Partition = 0
	sub.TotalTimeLimit = 0 // the outer deadline is enforced per job below
	sub.PartitionSolver = nil

	// Partition spans are pre-created in plan (index) order by this
	// goroutine, so the trace's partition list is deterministic
	// regardless of the largest-first start order or which worker slot
	// runs which job; each job fills in only its own subtree. The queue
	// child measures how long the partition waited for a scan worker.
	pspans := make([]*obs.Span, len(parts))
	qspans := make([]*obs.Span, len(parts))
	created := make([]time.Time, len(parts))
	for i := range parts {
		pspans[i] = d.span.Start(fmt.Sprintf("partition[%d]", i))
		pspans[i].SetAttr("complaints", len(parts[i].complaintIdx))
		pspans[i].SetAttr("candidates", len(parts[i].candidates))
		qspans[i] = pspans[i].Start("queue")
		created[i] = time.Now()
	}

	type outcome struct {
		rep       *Repair
		err       error
		queueWait time.Duration
		solve     time.Duration
	}
	// budget gives a job what is left of the diagnosis's deadline as its
	// TotalTimeLimit, reckoned when the job starts and again when its
	// solver declines it; false means nothing is, and the job answers
	// expired() unsolved.
	budget := func(o *Options) bool {
		if d.deadline.IsZero() {
			return true
		}
		o.TotalTimeLimit = time.Until(d.deadline)
		return o.TotalTimeLimit > 0
	}
	expired := func() *Repair { return &Repair{Log: d.log, Stats: Stats{LastStatus: "total-time-limit"}} }
	results, wait := sched.OnPool(nil, d.opt.Partition, len(parts), largestFirst(parts), func(i int) outcome {
		jobStart := time.Now()
		qspans[i].End()
		defer pspans[i].End()
		out := outcome{queueWait: jobStart.Sub(created[i])}
		o := sub
		o.Trace = pspans[i]
		if !budget(&o) {
			out.rep = expired()
			return out
		}
		o.Candidates = append([]int(nil), parts[i].candidates...)
		cs := make([]Complaint, len(parts[i].complaintIdx))
		for j, ci := range parts[i].complaintIdx {
			cs[j] = d.complaints[ci]
		}
		sp := Subproblem{D0: d.d0, Log: d.log, Complaints: cs, Options: o, plan: d.plan}
		if d.opt.PartitionSolver != nil {
			out.rep, out.err = d.opt.PartitionSolver.SolvePartition(sp)
			if errors.Is(out.err, ErrDeclined) {
				// Solved here on the plan this diagnosis holds, under a
				// "local" span and stamped like the fleet's own answers.
				lsp := pspans[i].Start("local")
				sp.Options.Trace = lsp
				out.rep, out.err = expired(), nil
				if budget(&sp.Options) {
					out.rep, out.err = sp.Solve()
				}
				lsp.End()
				if out.rep != nil {
					out.rep.Stats.WorkerAddr = "local"
				}
			}
		} else {
			out.rep, out.err = sp.Solve()
		}
		out.solve = time.Since(jobStart)
		return out
	})
	defer wait()

	reps := make([]*Repair, len(parts))
	var firstErr error
	// Every partition job delivers one outcome (deadline-expired jobs
	// deliver a "total-time-limit" stub), so the adjudication drain always
	// completes; cancellation is the jobs' own deadline check.
	for i := range parts {
		out := <-results[i]
		ps := PartitionStat{
			Index:      i,
			Complaints: len(parts[i].complaintIdx),
			Candidates: len(parts[i].candidates),
			QueueWait:  out.queueWait,
			Solve:      out.solve,
		}
		if out.rep != nil {
			st := out.rep.Stats
			ps.Remote = st.RemoteJobs > 0
			ps.Worker = st.WorkerAddr
			ps.Attempts = st.DispatchAttempts
			ps.Nodes = st.Nodes
			ps.Status = st.LastStatus
		}
		d.stats.PartitionStats = append(d.stats.PartitionStats, ps)
		if out.err != nil {
			if firstErr == nil {
				firstErr = out.err
			}
			continue
		}
		reps[i] = out.rep
		d.mergeStats(out.rep.Stats)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return reps, nil
}

// mergePartitionRepairs combines the per-partition repairs into one log
// repair: parameter assignments from every partition are applied to the
// original log, distance is summed (Manhattan distance is additive over
// disjoint query sets), Changed is unioned, and Stats were already
// merged as results arrived. Safety nets, in order:
//
//   - conflicting parameter assignments to a shared query → solve
//     jointly. Partitions have disjoint candidate sets and each
//     sub-diagnosis is pinned to its own (Options.Candidates), and the
//     distributed coordinator rejects a result that changes a statement
//     outside its job's candidates, so this is checked defensively;
//   - a partition that failed to resolve → the joint outcome would be
//     unresolved too, so return the identity repair unresolved, exactly
//     like the sequential scan does;
//   - the merged log fails full-complaint verification (cross-partition
//     interference through tuples outside the complaint attributes) →
//     fall back to a joint solve.
func (d *diagnoser) mergePartitionRepairs(reps []*Repair) (*Repair, error) {
	// The merge phase covers parameter stitching; the merged log's
	// verification is its own phase, and a fallback joint solve is
	// charged to the phases it runs. The phase is stopped before any
	// Stats snapshot.
	mp := startPhase(d.span, "merge")
	merged, conflicts := applyPartitionParams(d.log, reps)
	d.stats.MergeTime += mp.stop()
	if len(conflicts) > 0 {
		d.stats.PartitionFallback = true
		return d.solveJoint()
	}

	for _, rep := range reps {
		if rep == nil || !rep.Resolved {
			if rep != nil && rep.Stats.LastStatus != "" {
				d.stats.LastStatus = rep.Stats.LastStatus
			}
			return d.unresolved(), nil
		}
	}

	rep := d.finish(d.verify(merged, &d.stats, d.span))
	if !rep.Resolved {
		// Every partition verified in isolation but the combined log
		// violates a complaint: the partitions interfered outside the
		// attribute sets the planner reasons about. Solve jointly.
		d.stats.PartitionFallback = true
		return d.solveJoint()
	}
	return rep, nil
}

// applyPartitionParams overlays every partition repair's changed
// parameters onto the original log, copy-on-write like attempt: the
// merged log shares every statement no partition repaired. conflicts
// lists pairs of repair indices that assigned different values to the
// same query's parameters (each offending query contributes one pair).
func applyPartitionParams(orig []query.Query, reps []*Repair) (mergedLog []query.Query, conflicts [][2]int) {
	merged := slices.Clone(orig)
	assigned := make(map[int][]float64)
	ownerOf := make(map[int]int) // query index -> repair that assigned it
	for ri, rep := range reps {
		if rep == nil {
			continue
		}
		for _, qi := range rep.Changed {
			params := rep.Log[qi].Params()
			if prev, ok := assigned[qi]; ok {
				if !sameParams(prev, params) {
					conflicts = append(conflicts, [2]int{ownerOf[qi], ri})
				}
				continue
			}
			assigned[qi] = params
			ownerOf[qi] = ri
			merged[qi] = orig[qi].Clone()
			if err := merged[qi].SetParams(params); err != nil {
				// Structural mismatch cannot happen between clones of the
				// same log; route it through the conflict fallback anyway.
				conflicts = append(conflicts, [2]int{ri, ri})
			}
		}
	}
	if len(conflicts) > 0 {
		return nil, conflicts
	}
	return merged, nil
}

// sameParams compares two parameter vectors within solver tolerance.
func sameParams(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			return false
		}
	}
	return true
}

// mergeStats folds a partition's statistics into the shared totals.
// Called only from the adjudication goroutine.
func (d *diagnoser) mergeStats(st Stats) {
	d.stats.Rows += st.Rows
	d.stats.Vars += st.Vars
	d.stats.Binaries += st.Binaries
	d.stats.BatchesTried += st.BatchesTried
	d.stats.Nodes += st.Nodes
	d.stats.LPIters += st.LPIters
	d.stats.Refactorizations += st.Refactorizations
	d.stats.PresolvedRows += st.PresolvedRows
	d.stats.LPNumFails += st.LPNumFails
	d.stats.LPIterLimits += st.LPIterLimits
	d.stats.NodeLimitStops += st.NodeLimitStops
	d.stats.TimeLimitStops += st.TimeLimitStops
	d.stats.EncodeTime += st.EncodeTime
	d.stats.SolveTime += st.SolveTime
	d.stats.PlanTime += st.PlanTime
	d.stats.MergeTime += st.MergeTime
	d.stats.VerifyTime += st.VerifyTime
	d.stats.Replays += st.Replays
	d.stats.PlanPasses += st.PlanPasses
	d.stats.RemoteJobs += st.RemoteJobs
	d.stats.StreamedResults += st.StreamedResults
	d.stats.ImpactCacheHits += st.ImpactCacheHits
	d.stats.ImpactCacheExtends += st.ImpactCacheExtends
	d.stats.WorkerCacheHits += st.WorkerCacheHits
	d.stats.ImpactTime += st.ImpactTime
	if st.Refined {
		d.stats.Refined = true
	}
	if st.Partitions > d.stats.Partitions {
		d.stats.Partitions = st.Partitions
	}
	if st.PartitionFallback {
		d.stats.PartitionFallback = true
	}
	if st.LastStatus != "" {
		d.stats.LastStatus = st.LastStatus
	}
}
