package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
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
// return an error. It is Subproblem.Solve of its arguments under a
// "diagnose" span, with a repaired log that is the caller's own.
func Diagnose(d0 *relation.Table, log []query.Query, complaints []Complaint, opt Options) (*Repair, error) {
	span := opt.Trace.Start("diagnose")
	span.SetAttr("algorithm", opt.Algorithm.String())
	span.SetAttr("queries", len(log))
	span.SetAttr("complaints", len(complaints))
	defer span.End()
	opt.Trace = span

	rep, err := Subproblem{D0: d0, Log: log, Complaints: complaints, Options: opt}.Solve()
	if rep == nil {
		return nil, err
	}
	mDiagnoses.Inc()
	// Solve's repair shares every statement outside Rewritten with the
	// caller's log; the repair handed back is the caller's own to mutate.
	rep.Log = query.CloneLog(rep.Log)
	if rep.Resolved {
		mDiagnosesResolved.Inc()
	}
	mPlanSeconds.Observe(rep.Stats.PlanTime.Seconds())
	mEncodeSeconds.Observe(rep.Stats.EncodeTime.Seconds())
	mSolveSeconds.Observe(rep.Stats.SolveTime.Seconds())
	return rep, err
}

// Plan plans the subproblem's D0 and log once for every solve of it:
// the planning replay, checkResolution's verdict, the domain bound and
// the FullImpact closure, none of which reads a complaint or an option
// but Options.ImpactCache and Options.Trace. Copies of the subproblem
// share the plan, whatever Complaints and Options they are given, and
// solve on it concurrently; the first solve on it reports the plan's
// pass in its Stats (PlanPasses 1, one replay), the others none. D0
// and Log must not change afterwards. The error is the one Solve
// answers for this log.
func (s *Subproblem) Plan() error {
	d := &diagnoser{opt: s.Options, d0: s.D0, log: s.Log, width: s.D0.Schema().Width(), span: s.Options.Trace}
	if d.replay() == nil {
		d.planPass(true)
	}
	st := d.stats
	d.unclaimed.Store(&st)
	s.plan = d.plan
	return d.err
}

// Solve solves the subproblem on its plan, planning it first if it has
// none (Plan; a diagnosis's partitions carry the diagnosis's own). The
// repair's Log shares every statement outside Rewritten with s.Log,
// copy on write as inside a diagnosis: whoever mutates it must clone
// first (Diagnose does).
func (s Subproblem) Solve() (*Repair, error) {
	opt := s.Options.withDefaults()
	if len(s.Log) == 0 {
		return nil, fmt.Errorf("core: empty query log")
	}
	width := s.D0.Schema().Width()
	for _, c := range s.Complaints {
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

	d := &diagnoser{opt: opt, d0: s.D0, log: s.Log, complaints: s.Complaints,
		width: width, plan: s.plan, span: opt.Trace}
	if s.plan == nil {
		d.replay()
	} else if st := s.plan.unclaimed.Swap(nil); st != nil {
		d.stats = *st
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(s.Complaints) == 0 {
		// Nothing to diagnose: the identity repair is optimal.
		d.stats.RelevantQueries, d.stats.LastStatus = len(s.Log), "trivial"
		return &Repair{Log: s.Log, Resolved: true, Stats: d.stats}, nil
	}
	if s.plan == nil {
		d.planPass(opt.QuerySlicing || opt.AttrSlicing || opt.Partition > 0)
	} else {
		d.planSlices()
	}
	if opt.TotalTimeLimit > 0 {
		d.deadline = time.Now().Add(opt.TotalTimeLimit)
	}

	rep, err := d.dispatch()
	if rep != nil {
		// Which statements the search built itself is only knowable by
		// identity, before anyone clones the log.
		for i, q := range rep.Log {
			if q != s.Log[i] {
				rep.Rewritten = append(rep.Rewritten, i)
			}
		}
	}
	return rep, err
}

// checkResolution refuses data finer than the encoding separates. The
// encoder's strict comparisons and equality complements sit ε = 0.5
// from a WHERE constant, so two distinct values less than 2ε = 1 apart
// on an attribute a WHERE clause compares may get no boundary between
// them, and the MILP's repair can be wrong about the data (ROADMAP
// direction 13 makes ε follow the data instead). Only the tables'
// values count: a constant between two values a unit apart is repaired
// correctly. Whole-valued data passes in one pass, without a sort.
func checkResolution(log []query.Query, tables ...*relation.Table) error {
	var compared query.AttrSet
	var attrs []int
	for _, q := range log {
		switch v := q.(type) {
		case *query.Update:
			attrs = query.CondAttrs(v.Where, attrs[:0])
		case *query.Delete:
			attrs = query.CondAttrs(v.Where, attrs[:0])
		default:
			continue
		}
		compared.Add(attrs...)
	}
	cols := compared.Sorted()
	whole := true
	for _, tb := range tables {
		tb.Rows(func(t relation.Tuple) {
			for _, a := range cols {
				whole = whole && t.Values[a] == math.Trunc(t.Values[a])
			}
		})
	}
	if whole {
		return nil
	}
	for _, a := range cols {
		var vals []float64
		for _, tb := range tables {
			tb.Rows(func(t relation.Tuple) { vals = append(vals, t.Values[a]) })
		}
		slices.Sort(vals)
		for i := 1; i < len(vals); i++ {
			if gap := vals[i] - vals[i-1]; gap > 0 && gap < 1 {
				return fmt.Errorf("core: attribute %s has values %v and %v less than 1 apart, "+
					"finer than the encoding's ε = 0.5 separates", tables[0].Schema().Attr(a), vals[i-1], vals[i])
			}
		}
	}
	return nil
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
// conflict or cross-partition interference). Both algorithms are one
// scan: Basic (Algorithm 1) is Inc_k with a single batch holding every
// candidate.
func (d *diagnoser) solveJoint() (*Repair, error) {
	k := d.opt.K
	if d.opt.Algorithm == Basic {
		k = len(d.candidates)
	}
	return d.incremental(k)
}

type diagnoser struct {
	opt        Options
	d0         *relation.Table
	log        []query.Query
	complaints []Complaint
	width      int
	*plan      // shared read-only with every solve on it
	deadline   time.Time
	span       *obs.Span // phase spans hang here (nil = tracing off)

	// planning products of the complaints
	candidates   []int // repair candidates (query slicing or all)
	attrs        []int // encoded attributes (attr slicing or nil)
	tupleIDs     []int64
	complaintIDs map[int64]bool
	ac           query.AttrSet // complaint attributes A(C)

	stats Stats
}

// plan is what planning derives from a D0 and log before it reads a
// complaint. A diagnosis plans once and solves every partition on its
// plan (the paper's §5.1–5.3 slicing, applied per partition, derives
// each partition's slices from it by set arithmetic); a dist worker
// plans each body it decodes once for every job over it
// (Subproblem.Plan). Never mutated once built, but for unclaimed.
type plan struct {
	hist       *query.History  // the replay that produced dirtyFinal; verifies candidates
	dirtyFinal *relation.Table // the dirty final state
	err        error           // the replay's failure or checkResolution's refusal
	bound      float64         // big-M of encodings over the log
	full       []query.AttrSet // full impact F(q) per query (nil unless needed)
	// unclaimed holds a plan's own pass (Subproblem.Plan) until the
	// first solve on it takes it into its Stats, so the pass is reported
	// once however many solves share it.
	unclaimed atomic.Pointer[Stats]
}

// replay runs the planning replay into a fresh plan and refuses data
// finer than the encoding separates (plan.err).
func (d *diagnoser) replay() error {
	rp := startPhase(d.span, "replay")
	d.plan = &plan{hist: new(query.History)}
	dirtyFinal, err := d.hist.Replay(d.log, d.d0)
	d.stats.PlanTime += rp.stop()
	d.stats.Replays++
	if err != nil {
		d.err = fmt.Errorf("core: replaying log: %w", err)
		return d.err
	}
	d.dirtyFinal = dirtyFinal
	d.err = checkResolution(d.log, d.d0, dirtyFinal)
	return d.err
}

// planPass computes the plan's domain bound and, when full, its
// FullImpact closure, then the slicing sets of d's complaints (§5.1–5.3)
// if it has any. The partition planner reuses the full-impact sets and
// the dirty final state to build the complaint–query interaction graph.
func (d *diagnoser) planPass(full bool) {
	d.stats.PlanPasses++
	pp := startPhase(d.span, "plan")
	d.bound = encode.DomainBound(d.d0, d.log, d.dirtyFinal)
	if full {
		ip := startPhase(pp.sp, "impact")
		if d.opt.ImpactCache != nil {
			d.full = d.opt.ImpactCache.fullImpact(d.log, d.width, &d.stats)
		} else {
			d.full = FullImpact(d.log, d.width)
		}
		d.stats.ImpactTime += ip.stop()
	}
	if len(d.complaints) > 0 {
		d.planSlices()
	}
	d.stats.PlanTime += pp.stop()
}

// planSlices derives the complaints' slicing sets from the plan. On a
// shared plan they are provably the ones a fresh plan would compute:
// relevantQueries over the shared impact sets is deterministic, and a
// partition's Options.Candidates pins its candidates.
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
	defer res.Model.Release()
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

// incremental runs Algorithm 3: batches of k consecutive candidates,
// newest first. A verified repair that leaves every non-complaint tuple
// at its dirty value is returned immediately. A repair that resolves the
// complaints but disturbs other tuples is kept as a fallback while older
// batches are scanned — without tuple slicing this cannot happen (hard
// constraints forbid disturbance, as in the paper's Basic_params), and
// with tuple slicing this gate is what keeps repair precision high when
// a newer query admits a spurious fix. With no candidate the input log
// is the answer, resolved exactly when the dirty final state already
// satisfies the complaints.
func (d *diagnoser) incremental(k int) (*Repair, error) {
	if len(d.candidates) == 0 {
		return d.finish(verified{log: d.log, ok: true}), nil
	}
	// Candidates sorted most to least recent.
	cands := append([]int(nil), d.candidates...)
	for i, j := 0, len(cands)-1; i < j; i, j = i+1, j-1 {
		cands[i], cands[j] = cands[j], cands[i]
	}
	var fallback *Repair
	fallbackDamage := 0
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
			continue // failed verification; scan older batches
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

// verified is a candidate repair with its verification: the rows whose
// final state under the log differs from the dirty final state, with
// their exact values, and those rows' diff against the dirty final
// state. The log's final state is the dirty final state with rows in
// place of its own rows, which is what resolution, the damage gate and
// the refinement's soft set and domain bound read, so a candidate is
// verified once however many of them look. Never mutated once built.
type verified struct {
	log  []query.Query
	ok   bool             // the log replays
	rows []relation.Tuple // by ascending ID; nil Values: not in the final state
	diff []relation.Diff  // dirtyFinal -> final
}

// verify verifies a candidate repair against the dirty replay's history,
// charging it to st as one replay.
func (d *diagnoser) verify(log []query.Query, st *Stats, sp *obs.Span) verified {
	vp := startPhase(sp, "verify")
	v := verified{log: log}
	st.Replays++
	if rows, err := d.hist.Diverged(log); err == nil {
		v.ok, v.rows = true, rows
		v.diff = diffRows(d.dirtyFinal, rows, 1e-9)
	}
	st.VerifyTime += vp.stop()
	return v
}

// diffRows is relation.DiffTables(dirty, final, eps) for the final state
// that is dirty with rows (see verified) in place of its own.
func diffRows(dirty *relation.Table, rows []relation.Tuple, eps float64) []relation.Diff {
	var out []relation.Diff
	for _, after := range rows {
		before, ok := dirty.Get(after.ID)
		switch {
		case after.Values == nil:
			out = append(out, relation.Diff{ID: after.ID, Before: &before})
		case !ok:
			out = append(out, relation.Diff{ID: after.ID, After: &after})
		case !before.Equal(after, eps):
			out = append(out, relation.Diff{ID: after.ID, Before: &before, After: &after})
		}
	}
	return out
}

// boundOf is encode.DomainBound over a candidate log and its final state.
func (d *diagnoser) boundOf(v verified) float64 {
	return encode.DomainBound(d.d0, v.log, d.dirtyFinal, v.rows...)
}

// lookup returns a row of the candidate's final state.
func (v verified) lookup(dirty *relation.Table, id int64) (relation.Tuple, bool) {
	if i, ok := slices.BinarySearchFunc(v.rows, id, func(t relation.Tuple, id int64) int {
		return cmp.Compare(t.ID, id)
	}); ok {
		return v.rows[i], v.rows[i].Values != nil
	}
	return dirty.Get(id)
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
// in turn, and that verification is the next round's input: the returned
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
	// final verification regardless.
	const maxSoftPerRound = 60
	const maxRounds = 3

	softSet := make(map[int64]bool)
	var soft []int64
	for round := 0; round < maxRounds && v.ok; round++ {
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
		refined, ok, err := d.attempt(v.log, d.boundOf(v), paramSet, soft, st, rsp)
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
	rep.Resolved = v.ok && complaintsResolved(func(id int64) (relation.Tuple, bool) {
		return v.lookup(d.dirtyFinal, id)
	}, d.complaints, 1e-6)
	return rep
}

// ComplaintsResolved checks a final state against a complaint set.
func ComplaintsResolved(final *relation.Table, complaints []Complaint, eps float64) bool {
	return complaintsResolved(final.Get, complaints, eps)
}

// complaintsResolved is ComplaintsResolved over a final state's lookup.
func complaintsResolved(get func(int64) (relation.Tuple, bool), complaints []Complaint, eps float64) bool {
	for _, c := range complaints {
		t, ok := get(c.TupleID)
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
