package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/encode"
	"repro/internal/milp"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/relation"
)

// Diagnose runs QFix: it analyzes the log and the complaint set and
// returns a log repair. A nil error with Repair.Resolved=false means the
// search completed without finding a verified repair (the paper reports
// these runs as infeasible/timeout); hard failures (malformed inputs)
// return an error.
func Diagnose(d0 *relation.Table, log []query.Query, complaints []Complaint, opt Options) (*Repair, error) {
	opt = opt.withDefaults()
	if len(log) == 0 {
		return nil, fmt.Errorf("core: empty query log")
	}
	width := d0.Schema().Width()
	for _, c := range complaints {
		if c.Exists && len(c.Values) != width {
			return nil, fmt.Errorf("core: complaint on tuple %d has %d values for %d attributes",
				c.TupleID, len(c.Values), width)
		}
		for a, v := range c.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("core: complaint on tuple %d has non-finite value %v for attribute %d",
					c.TupleID, v, a)
			}
		}
	}

	span := opt.Trace.Start("diagnose")
	span.SetAttr("algorithm", opt.Algorithm.String())
	span.SetAttr("queries", len(log))
	span.SetAttr("complaints", len(complaints))
	defer span.End()

	rp := startPhase(span, "replay")
	dirtyFinal, err := query.Replay(log, d0)
	replayTime := rp.stop()
	if err != nil {
		return nil, fmt.Errorf("core: replaying log: %w", err)
	}
	if len(complaints) == 0 {
		// Nothing to diagnose: the identity repair is optimal.
		mDiagnoses.Inc()
		mDiagnosesResolved.Inc()
		return &Repair{Log: query.CloneLog(log), Resolved: true,
			Stats: Stats{RelevantQueries: len(log), LastStatus: "trivial",
				PlanTime: replayTime, Replays: 1}}, nil
	}

	d := &diagnoser{
		opt: opt, d0: d0, log: log, complaints: complaints,
		width: width, dirtyFinal: dirtyFinal, span: span,
	}
	d.stats.PlanTime += replayTime
	d.stats.Replays = 1
	d.plan()
	if opt.TotalTimeLimit > 0 {
		d.deadline = time.Now().Add(opt.TotalTimeLimit)
	}

	rep, err := d.dispatch()
	mDiagnoses.Inc()
	if rep != nil {
		// Inside the diagnosis a candidate log shares every statement it
		// did not repair with the caller's log (see attempt); the repair
		// handed back is the caller's own to mutate. Which statements were
		// shared is only knowable before the clone.
		for i, q := range rep.Log {
			if q != log[i] {
				rep.Rewritten = append(rep.Rewritten, i)
			}
		}
		rep.Log = query.CloneLog(rep.Log)
		if rep.Resolved {
			mDiagnosesResolved.Inc()
		}
		mPlanSeconds.Observe(rep.Stats.PlanTime.Seconds())
		mEncodeSeconds.Observe(rep.Stats.EncodeTime.Seconds())
		mSolveSeconds.Observe(rep.Stats.SolveTime.Seconds())
	}
	return rep, err
}

// dispatch routes the planned diagnosis to the partitioned or joint
// solve path.
func (d *diagnoser) dispatch() (*Repair, error) {
	if d.opt.Partition > 0 {
		if rep, handled, err := d.partitioned(); handled {
			return rep, err
		}
	}
	return d.solveJoint()
}

// solveJoint runs the configured algorithm over the whole complaint set
// (the solve stage when partition planning is off or found a single
// component, and the fallback when partition merging detects a
// conflict or cross-partition interference).
func (d *diagnoser) solveJoint() (*Repair, error) {
	switch d.opt.Algorithm {
	case Incremental:
		return d.incremental()
	default:
		return d.basic()
	}
}

type diagnoser struct {
	opt        Options
	d0         *relation.Table
	log        []query.Query
	complaints []Complaint
	width      int
	dirtyFinal *relation.Table
	deadline   time.Time
	span       *obs.Span // phase spans hang here (nil = tracing off)

	// planning products
	candidates   []int // repair candidates (query slicing or all)
	attrs        []int // encoded attributes (attr slicing or nil)
	tupleIDs     []int64
	complaintIDs map[int64]bool
	full         []query.AttrSet // full impact F(q) per query (nil unless needed)
	ac           query.AttrSet   // complaint attributes A(C)
	bound        float64         // big-M of encodings over d.log

	stats Stats
}

// plan computes the slicing sets (§5.2–5.3) and the tuple slice (§5.1).
// Its products stay on the diagnoser: the partition planner reuses the
// full-impact sets and the dirty final state to build the
// complaint–query interaction graph without recomputing them, and
// partition subproblems adopt them wholesale (adoptPlan) so only the
// coordinating diagnosis pays for the replay and the FullImpact closure.
func (d *diagnoser) plan() {
	d.stats.PlanPasses++
	pp := startPhase(d.span, "plan")
	d.bound = encode.DomainBound(d.d0, d.log, d.dirtyFinal)
	if d.opt.QuerySlicing || d.opt.AttrSlicing || d.opt.Partition > 0 {
		ip := startPhase(pp.sp, "impact")
		if d.opt.ImpactCache != nil {
			d.full = d.opt.ImpactCache.fullImpact(d.log, d.width, &d.stats)
		} else {
			d.full = FullImpact(d.log, d.width)
		}
		d.stats.ImpactTime += ip.stop()
	}
	d.planSlices()
	d.stats.PlanTime += pp.stop()
}

// adoptPlan initializes a partition sub-diagnoser from its parent's
// planning products: the replayed dirty state and FullImpact closure are
// shared read-only, so the sub-diagnosis derives its slices by cheap set
// arithmetic instead of a planning pass of its own (Stats.PlanPasses
// stays at the parent's single pass). The derived candidate set is
// provably the one a fresh plan would compute: Options.Candidates is
// pinned to the partition's candidates, and relevantQueries over the
// shared impact sets is deterministic.
func (sub *diagnoser) adoptPlan(parent *diagnoser) {
	sub.dirtyFinal = parent.dirtyFinal
	sub.bound = parent.bound
	sub.full = parent.full
	sub.planSlices()
}

// planSlices derives the per-diagnosis slicing sets from the (computed
// or adopted) dirty final state and impact closure.
func (d *diagnoser) planSlices() {
	d.ac = complaintAttrs(d.complaints, d.dirtyFinal)
	if d.opt.QuerySlicing {
		d.candidates = relevantQueries(d.full, d.ac, d.opt.SingleCorruption)
	} else {
		d.candidates = make([]int, len(d.log))
		for i := range d.log {
			d.candidates[i] = i
		}
	}
	if d.opt.AttrSlicing {
		d.attrs = relevantAttrs(d.log, d.full, d.candidates, d.ac)
	}
	if d.opt.Candidates != nil {
		allowed := make(map[int]bool, len(d.opt.Candidates))
		for _, i := range d.opt.Candidates {
			allowed[i] = true
		}
		var kept []int
		for _, i := range d.candidates {
			if allowed[i] {
				kept = append(kept, i)
			}
		}
		d.candidates = kept
	}
	d.stats.RelevantQueries = len(d.candidates)

	d.complaintIDs = make(map[int64]bool, len(d.complaints))
	for _, c := range d.complaints {
		d.complaintIDs[c.TupleID] = true
	}
	if d.opt.TupleSlicing {
		d.tupleIDs = make([]int64, 0, len(d.complaints))
		for _, c := range d.complaints {
			d.tupleIDs = append(d.tupleIDs, c.TupleID)
		}
	}
}

// encComplaints converts to the encoder's complaint type.
func (d *diagnoser) encComplaints() []encode.Complaint {
	out := make([]encode.Complaint, len(d.complaints))
	for i, c := range d.complaints {
		out[i] = encode.Complaint{TupleID: c.TupleID, Exists: c.Exists, Values: c.Values}
	}
	return out
}

// attempt encodes the given parameter set over the given log (whose
// big-M is bound: encode.DomainBound over it and its final state, which
// the caller has already replayed) and solves, returning the repaired
// log when the solver finds a solution. Solver statistics accumulate
// into st (the diagnosis's own, or a partition's); encode/solve spans
// hang under sp (typically a per-batch span).
func (d *diagnoser) attempt(baseLog []query.Query, bound float64, paramSet map[int]bool, soft []int64, st *Stats, sp *obs.Span) ([]query.Query, bool, error) {
	eo := encode.Options{
		ParamQueries:     paramSet,
		TupleIDs:         d.tupleIDs,
		Attrs:            d.attrs,
		FixNonComplaints: !d.opt.TupleSlicing,
		SoftTupleIDs:     soft,
		DomainBound:      bound,
	}

	ep := startPhase(sp, "encode")
	res, err := encode.Encode(d.d0, baseLog, d.encComplaints(), eo)
	st.EncodeTime += ep.stop()
	if err != nil {
		return nil, false, err
	}
	ep.sp.SetAttr("rows", res.Stats.Rows)
	ep.sp.SetAttr("vars", res.Stats.Vars)
	ep.sp.SetAttr("bound", bound)
	st.Rows += res.Stats.Rows
	st.Vars += res.Stats.Vars
	st.Binaries += res.Stats.Binaries
	st.BatchesTried++

	limit := d.opt.TimeLimit
	if !d.deadline.IsZero() {
		remain := time.Until(d.deadline)
		if remain <= 0 {
			st.LastStatus = "total-time-limit"
			return nil, false, nil
		}
		if remain < limit {
			limit = remain
		}
	}
	mopt := milp.Options{
		TimeLimit: limit,
		MaxNodes:  d.opt.MaxNodes,
		Parallel:  d.opt.SolverParallel,
	}
	svp := startPhase(sp, "solve")
	mopt.Trace = svp.sp
	mres, vals := res.SolveOpts(mopt)
	st.SolveTime += svp.stop()
	svp.sp.SetAttr("status", mres.Status.String())
	svp.sp.SetAttr("nodes", mres.Nodes)
	svp.sp.SetAttr("lp_iters", mres.LPIters)
	st.addSolve(mres)
	if !mres.HasSolution {
		return nil, false, nil
	}

	// Copy on write: the candidate shares every statement of the base log
	// but the ones the MILP parameterized, so whoever compares it with the
	// base log (finish, a refinement round built on it) can skip whatever
	// is pointer-identical. res.Params lists a query's parameters together
	// and the queries in log order.
	repaired := slices.Clone(baseLog)
	for i := 0; i < len(res.Params); {
		qi := res.Params[i].Query
		params := baseLog[qi].Params()
		for ; i < len(res.Params) && res.Params[i].Query == qi; i++ {
			params[res.Params[i].Index] = vals[i]
		}
		repaired[qi] = baseLog[qi].Clone()
		if err := repaired[qi].SetParams(params); err != nil {
			return nil, false, fmt.Errorf("core: applying repair to query %d: %w", qi, err)
		}
	}
	return repaired, true, nil
}

// addSolve folds one MILP solve's counters and status into st.
func (st *Stats) addSolve(r milp.Result) {
	st.Nodes += r.Nodes
	st.LPIters += r.LPIters
	st.Refactorizations += r.Refactorizations
	st.PresolvedRows += r.PresolvedRows
	st.LPNumFails += r.LPNumFails
	st.LPIterLimits += r.LPIterLimits
	if r.NodeLimitHit {
		st.NodeLimitStops++
	}
	if r.TimeLimitHit {
		st.TimeLimitStops++
	}
	st.LastStatus = r.Status.String()
}

// basic runs Algorithm 1: one MILP parameterizing every candidate query.
func (d *diagnoser) basic() (*Repair, error) {
	paramSet := make(map[int]bool, len(d.candidates))
	for _, i := range d.candidates {
		paramSet[i] = true
	}
	bsp := d.span.Start("batch")
	bsp.SetAttr("queries", len(paramSet))
	defer bsp.End()
	repaired, ok, err := d.attempt(d.log, d.bound, paramSet, nil, &d.stats, bsp)
	if err != nil {
		return nil, err
	}
	if !ok {
		return d.unresolved(), nil
	}
	return d.finish(d.maybeRefine(repaired, paramSet, &d.stats, bsp)), nil
}

// incremental runs Algorithm 3: batches of K consecutive candidates,
// newest first. A verified repair that leaves every non-complaint tuple
// at its dirty value is returned immediately. A repair that resolves the
// complaints but disturbs other tuples is kept as a fallback while older
// batches are scanned — without tuple slicing this cannot happen (hard
// constraints forbid disturbance, as in the paper's Basic_params), and
// with tuple slicing this gate is what keeps repair precision high when
// a newer query admits a spurious fix.
func (d *diagnoser) incremental() (*Repair, error) {
	// Candidates sorted most to least recent.
	cands := append([]int(nil), d.candidates...)
	for i, j := 0, len(cands)-1; i < j; i, j = i+1, j-1 {
		cands[i], cands[j] = cands[j], cands[i]
	}
	var fallback *Repair
	fallbackDamage := 0
	k := d.opt.K
	for start := 0; start < len(cands); start += k {
		if !d.deadline.IsZero() && time.Now().After(d.deadline) {
			d.stats.LastStatus = "total-time-limit"
			break
		}
		end := start + k
		if end > len(cands) {
			end = len(cands)
		}
		paramSet := make(map[int]bool, end-start)
		for _, qi := range cands[start:end] {
			paramSet[qi] = true
		}
		bsp := d.span.Start("batch")
		bsp.SetAttr("queries", len(paramSet))
		repaired, ok, err := d.attempt(d.log, d.bound, paramSet, nil, &d.stats, bsp)
		if err != nil {
			bsp.End()
			return nil, err
		}
		if !ok {
			bsp.End()
			continue
		}
		v := d.maybeRefine(repaired, paramSet, &d.stats, bsp)
		bsp.End()
		rep := d.finish(v)
		if !rep.Resolved {
			continue // failed replay verification; scan older batches
		}
		damage := d.damage(v)
		if damage == 0 {
			return rep, nil
		}
		if fallback == nil || damage < fallbackDamage ||
			(damage == fallbackDamage && rep.Distance < fallback.Distance) {
			fallback, fallbackDamage = rep, damage
		}
	}
	if fallback != nil {
		fallback.Stats = d.stats
		return fallback, nil
	}
	return d.unresolved(), nil
}

// verified is a candidate repair with its one verification replay: the
// final state the log produces from D0 and that state's diff against the
// dirty final state. Resolution, the damage gate and the refinement soft
// set all read it, so a candidate costs one full-table replay however
// many of them look. Never mutated once built.
type verified struct {
	log   []query.Query
	final *relation.Table // nil when the log does not replay
	diff  []relation.Diff // dirtyFinal -> final
}

// verify replays a candidate repair, charging the replay to st.
func (d *diagnoser) verify(log []query.Query, st *Stats, sp *obs.Span) verified {
	vp := startPhase(sp, "verify")
	v := verified{log: log}
	st.Replays++
	if final, err := query.Replay(log, d.d0); err == nil {
		v.final = final
		v.diff = relation.DiffTables(d.dirtyFinal, final, 1e-9)
	}
	st.VerifyTime += vp.stop()
	return v
}

// damage counts non-complaint tuples whose final state under the repair
// differs from the dirty final state.
func (d *diagnoser) damage(v verified) int {
	n := 0
	for _, df := range v.diff {
		if !d.complaintIDs[df.ID] {
			n++
		}
	}
	return n
}

// maybeRefine verifies the step-1 repair and runs the §5.1 step-2
// refinement: if the repair touches non-complaint tuples, re-solve with
// those tuples soft and an objective that minimizes how many stay
// affected. The step iterates (up to a small bound) because excluding one
// batch of non-complaint tuples can move the repaired clause onto
// previously untouched tuples the earlier soft set did not cover; the
// soft set accumulates across rounds. Each round's re-solve is verified
// in turn, and that replay is the next round's input: the returned
// repair always carries the verification of its own log.
func (d *diagnoser) maybeRefine(repaired []query.Query, paramSet map[int]bool, st *Stats, sp *obs.Span) verified {
	v := d.verify(repaired, st, sp)
	if !d.opt.TupleSlicing || d.opt.SkipRefine {
		return v
	}
	// The paper's refinement MILP is "significantly smaller" than step 1
	// (§5.1); if the step-1 repair disturbed a huge set of tuples, a full
	// re-encode would dwarf it. Cap how many NEW soft tuples each round
	// may add (a global cap would starve later rounds and fake
	// convergence); the incremental loop's damage gate re-checks the
	// final replay regardless.
	const maxSoftPerRound = 60
	const maxRounds = 3

	softSet := make(map[int64]bool)
	var soft []int64
	for round := 0; round < maxRounds && v.final != nil; round++ {
		fresh := 0
		for _, df := range v.diff {
			if d.complaintIDs[df.ID] || softSet[df.ID] {
				continue
			}
			if fresh >= maxSoftPerRound {
				break
			}
			softSet[df.ID] = true
			soft = append(soft, df.ID)
			fresh++
		}
		if fresh == 0 {
			return v // converged: no newly affected tuples
		}
		st.Refined = true
		// Re-encode over the *repaired* log so distance is measured from
		// the current solution, parameterizing only the repaired queries.
		rsp := sp.Start("refine")
		rsp.SetAttr("soft", len(soft))
		refined, ok, err := d.attempt(v.log, encode.DomainBound(d.d0, v.log, v.final), paramSet, soft, st, rsp)
		rsp.End()
		if err != nil || !ok {
			return v
		}
		v = d.verify(refined, st, sp)
	}
	return v
}

// unresolved packages the outcome of a search that found no repair.
func (d *diagnoser) unresolved() *Repair {
	return &Repair{Log: d.log, Resolved: false, Stats: d.stats}
}

// finish packages a verified repair. Only statements that are not the
// base log's own can differ from it (logs are copy-on-write, see
// attempt), so only those are compared; each contributes to the
// distance what query.Distance would add for it, in the same order.
func (d *diagnoser) finish(v verified) *Repair {
	rep := &Repair{Log: v.log, Stats: d.stats}
	for i, q := range v.log {
		if q == d.log[i] {
			continue
		}
		orig, rp := d.log[i].Params(), q.Params()
		changed := false
		for j := range rp {
			diff := math.Abs(rp[j] - orig[j])
			rep.Distance += diff
			changed = changed || diff > 1e-9
		}
		if changed {
			rep.Changed = append(rep.Changed, i)
		}
	}
	rep.Resolved = v.final != nil && ComplaintsResolved(v.final, d.complaints, 1e-6)
	return rep
}

// ComplaintsResolved checks a final state against a complaint set.
func ComplaintsResolved(final *relation.Table, complaints []Complaint, eps float64) bool {
	for _, c := range complaints {
		t, ok := final.Get(c.TupleID)
		if c.Exists != ok {
			return false
		}
		if !c.Exists {
			continue
		}
		for a, want := range c.Values {
			// Negated so a NaN or infinite difference counts as unresolved.
			if !(math.Abs(t.Values[a]-want) <= eps) {
				return false
			}
		}
	}
	return true
}
