package encode

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/milp"
	"repro/internal/query"
	"repro/internal/relation"
)

// tstate is the symbolic state of one tracked tuple as the encoder walks
// the log: per-attribute affine expressions for tracked attributes, the
// dirty-replay values for frozen attributes, and a liveness literal.
type tstate struct {
	id          int64
	vals        []aff  // valid where trackedAttr
	trackedAttr []bool // per attribute
	dirtyVals   []float64
	dirtyAlive  bool
	alive       bval
	soft        bool
	isComplaint bool
}

type encoder struct {
	m     *milp.Model
	opt   Options
	log   []query.Query // the caller's, read only
	sch   *relation.Schema
	width int
	M     float64

	dirty    *relation.Table
	tracked  map[int64]*tstate
	order    []*tstate
	trackAll bool
	wantIDs  map[int64]bool
	softIDs  map[int64]bool
	attrSeed []bool // nil = track all attributes

	params    []ParamRef
	paramOrig map[milp.Var]float64
	sigma     map[sigmaKey]milp.Var
	sigmaTrue map[sigmaKey]bool       // folded-true σ of parameterized queries
	windows   map[milp.Var][2]float64 // predicate-parameter LHS ranges
	stats     Stats
}

// widenWindow grows the observed LHS range of a predicate parameter. A
// parameter value beyond every encoded tuple's LHS range behaves exactly
// like the nearest range edge, so after a query is encoded the parameter
// can be confined to [min(lo, orig)-Δ, max(hi, orig)+Δ] without losing
// any optimum (the original value stays inside, so clamping never
// increases distance). This dramatically tightens the big-M relaxations
// that branch-and-bound prunes with.
func (e *encoder) widenWindow(pv milp.Var, lo, hi float64) {
	w, ok := e.windows[pv]
	if !ok {
		e.windows[pv] = [2]float64{lo, hi}
		return
	}
	if lo < w[0] {
		w[0] = lo
	}
	if hi > w[1] {
		w[1] = hi
	}
	e.windows[pv] = w
}

// flushWindows pins each parameter seen this query to its safe window.
// Parameters are visited in variable order: bound updates are
// independent per variable, but a sorted walk keeps the pass trivially
// deterministic, which core's TestSolverParallelMatchesSequential
// checks by repetition.
func (e *encoder) flushWindows() {
	if len(e.windows) == 0 {
		return
	}
	params := make([]milp.Var, 0, len(e.windows))
	for pv := range e.windows {
		params = append(params, pv)
	}
	slices.Sort(params)
	for _, pv := range params {
		w := e.windows[pv]
		orig := e.paramOrig[pv]
		slack := eps + 1
		lo := math.Min(w[0], orig) - slack
		hi := math.Max(w[1], orig) + slack
		lb, ub := e.m.Bounds(pv)
		if lo > lb {
			lb = lo
		}
		if hi < ub {
			ub = hi
		}
		if lb <= ub {
			e.m.SetBounds(pv, lb, ub)
		}
	}
	clear(e.windows)
}

// pctx carries the parameter variables of the query being encoded, or
// nothing when the query is replayed with its original constants.
type pctx struct {
	on       bool
	setVars  []milp.Var // Update: per SET clause; Insert: per value
	predVars map[*query.Pred]milp.Var
}

// Encode builds the MILP for the given initial state, log, and complaint
// set under the slicing options. The log is not mutated.
func Encode(d0 *relation.Table, log []query.Query, complaints []Complaint, opt Options) (*Result, error) {
	e, err := newEncoder(d0, log, complaints, opt)
	if err != nil {
		return nil, err
	}
	for i := range e.log {
		if err := e.step(i); err != nil {
			return nil, err
		}
	}
	if err := e.assignFinals(complaints); err != nil {
		return nil, err
	}

	e.stats.Rows = e.m.NumConstrs()
	e.stats.Vars = e.m.NumVars()
	e.stats.Binaries = e.m.NumIntVars()
	e.stats.TuplesTracked = len(e.order)
	return &Result{Model: e.m, Params: e.params, Stats: e.stats}, nil
}

// newEncoder sets up the encoder over the state before the first query:
// the slicing scopes, the domain bound, and the tracked tuples of D0.
func newEncoder(d0 *relation.Table, log []query.Query, complaints []Complaint, opt Options) (*encoder, error) {
	e := &encoder{
		m:         milp.NewModel(),
		opt:       opt,
		log:       log,
		sch:       d0.Schema(),
		width:     d0.Schema().Width(),
		tracked:   make(map[int64]*tstate),
		paramOrig: make(map[milp.Var]float64),
		sigma:     make(map[sigmaKey]milp.Var),
		sigmaTrue: make(map[sigmaKey]bool),
		windows:   make(map[milp.Var][2]float64),
	}
	e.M = opt.DomainBound
	if e.M <= 0 {
		// Callers that hold the log's final state pass DomainBound(d0,
		// log, final) instead and spare this replay. A log that does not
		// replay fails the dirty replay below with the same error.
		final, _ := query.Replay(log, d0)
		e.M = DomainBound(d0, log, final)
	}
	if opt.TupleIDs == nil {
		e.trackAll = true
	} else {
		e.wantIDs = make(map[int64]bool, len(opt.TupleIDs))
		for _, id := range opt.TupleIDs {
			e.wantIDs[id] = true
		}
	}
	e.softIDs = make(map[int64]bool, len(opt.SoftTupleIDs))
	for _, id := range opt.SoftTupleIDs {
		e.softIDs[id] = true
		if e.wantIDs != nil {
			e.wantIDs[id] = true
		}
	}
	if opt.Attrs != nil {
		e.attrSeed = make([]bool, e.width)
		for _, a := range opt.Attrs {
			if a < 0 || a >= e.width {
				return nil, fmt.Errorf("encode: attribute %d out of range", a)
			}
			e.attrSeed[a] = true
		}
	}

	// Complaint targets force their attributes and tuples into scope.
	for _, c := range complaints {
		if c.Exists && len(c.Values) != e.width {
			return nil, fmt.Errorf("encode: complaint on tuple %d has arity %d, want %d",
				c.TupleID, len(c.Values), e.width)
		}
		if e.wantIDs != nil {
			e.wantIDs[c.TupleID] = true
		}
	}

	// Seed tracked tuples from D0. A statement's effect on a tuple depends
	// on that tuple alone, so under tuple slicing the dirty replay carries
	// only the wanted rows: each log step then costs O(|tracked|), not
	// O(|D0|). The ID counter is D0's, so inserts allocate the IDs they
	// get in a replay of the full table.
	if e.trackAll {
		e.dirty = d0.Clone()
	} else {
		var keep []relation.Tuple
		d0.Rows(func(t relation.Tuple) {
			if e.wantIDs[t.ID] {
				keep = append(keep, t)
			}
		})
		var err error
		if e.dirty, err = relation.NewTableFromRows(e.sch, keep, d0.NextID()); err != nil {
			return nil, fmt.Errorf("encode: slicing the initial state: %w", err)
		}
	}
	e.dirty.Rows(func(t relation.Tuple) { e.newTstate(t.ID, t.Values) })
	return e, nil
}

// step encodes log entry i over the tracked tuples and advances the dirty
// replay past it.
func (e *encoder) step(i int) error {
	q := e.log[i]
	pc, err := e.paramize(i, q)
	if err != nil {
		return err
	}
	switch v := q.(type) {
	case *query.Update:
		e.encodeUpdate(i, v, pc)
		if err := v.Apply(e.dirty); err != nil {
			return fmt.Errorf("encode: dirty replay of query %d: %w", i, err)
		}
	case *query.Delete:
		e.encodeDelete(i, v, pc)
		if err := v.Apply(e.dirty); err != nil {
			return fmt.Errorf("encode: dirty replay of query %d: %w", i, err)
		}
	case *query.Insert:
		newID := e.dirty.NextID()
		if err := v.Apply(e.dirty); err != nil {
			return fmt.Errorf("encode: dirty replay of query %d: %w", i, err)
		}
		if e.trackAll || e.wantIDs[newID] {
			e.encodeInsert(i, v, pc, newID)
		} else {
			e.dirty.Delete(newID)
		}
	default:
		return fmt.Errorf("encode: unsupported query kind %T at index %d", q, i)
	}
	e.flushWindows()
	e.refreshDirty()
	return nil
}

// DomainBound derives the big-M domain bound Encode uses when
// Options.DomainBound is zero: twice the largest absolute value seen in
// the initial state, the log's final state (final = Replay(log, d0); nil
// when the log does not replay) or any query constant, plus slack.
func DomainBound(d0 *relation.Table, log []query.Query, final *relation.Table) float64 {
	maxAbs := 1.0
	scan := func(vs []float64) {
		for _, v := range vs {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
	}
	d0.Rows(func(t relation.Tuple) { scan(t.Values) })
	for _, q := range log {
		scan(q.Params())
	}
	if final != nil {
		final.Rows(func(t relation.Tuple) { scan(t.Values) })
	}
	return 2*maxAbs + 10
}

// newTstate registers a tracked tuple whose current values are known
// constants (a D0 row or a non-parameterized insert).
func (e *encoder) newTstate(id int64, values []float64) *tstate {
	t := &tstate{
		id:          id,
		vals:        make([]aff, e.width),
		trackedAttr: make([]bool, e.width),
		dirtyVals:   append([]float64(nil), values...),
		dirtyAlive:  true,
		alive:       knownB(true),
		soft:        e.softIDs[id],
	}
	for a := 0; a < e.width; a++ {
		if e.attrSeed == nil || e.attrSeed[a] {
			t.trackedAttr[a] = true
			t.vals[a] = constAff(values[a])
		}
	}
	e.tracked[id] = t
	e.order = append(e.order, t)
	return t
}

// valOf reads attribute a of tuple t as an affine expression; frozen
// attributes read the dirty-replay constant.
func (e *encoder) valOf(t *tstate, a int) aff {
	if t.trackedAttr[a] {
		return t.vals[a]
	}
	return constAff(t.dirtyVals[a])
}

// promote upgrades a frozen attribute to tracked, seeding it with its
// current dirty value. Sound because frozen attributes always equal
// their dirty replay (see package comment).
func (e *encoder) promote(t *tstate, a int) {
	if t.trackedAttr[a] {
		return
	}
	t.trackedAttr[a] = true
	t.vals[a] = constAff(t.dirtyVals[a])
}

// refreshDirty re-reads every tracked tuple's dirty values after a log
// step; deleted tuples keep their last values and flip dirtyAlive.
func (e *encoder) refreshDirty() {
	for _, t := range e.order {
		t.dirtyAlive = e.dirty.ReadValues(t.id, t.dirtyVals)
	}
}

// paramize creates parameter variables (and distance objective terms)
// for query i when it is marked for repair.
func (e *encoder) paramize(i int, q query.Query) (pctx, error) {
	if !e.opt.ParamQueries[i] {
		return pctx{}, nil
	}
	pc := pctx{on: true, predVars: make(map[*query.Pred]milp.Var)}
	idx := 0
	newParam := func(orig float64) milp.Var {
		v := e.m.NewContinuous(orig-e.M, orig+e.M)
		e.params = append(e.params, ParamRef{Query: i, Index: idx, Orig: orig, Var: v})
		d := e.m.NewAbsDeviation([]milp.Term{{Var: v, Coef: 1}}, orig)
		e.m.SetObjCoef(d, 1)
		e.paramOrig[v] = orig
		idx++
		return v
	}
	switch v := q.(type) {
	case *query.Update:
		for si := range v.Set {
			pc.setVars = append(pc.setVars, newParam(v.Set[si].Expr.Const))
		}
		query.WalkPreds(v.Where, func(p *query.Pred) {
			pc.predVars[p] = newParam(p.RHS)
		})
	case *query.Insert:
		for _, val := range v.Values {
			pc.setVars = append(pc.setVars, newParam(val))
		}
	case *query.Delete:
		query.WalkPreds(v.Where, func(p *query.Pred) {
			pc.predVars[p] = newParam(p.RHS)
		})
	}
	return pc, nil
}

// combineSet builds µ's value for one SET clause over the tuple's current
// symbolic state; the clause constant becomes a parameter variable when
// the query is parameterized.
func (e *encoder) combineSet(t *tstate, sc query.SetClause, pv milp.Var, on bool) aff {
	out := constAff(0)
	for _, tm := range sc.Expr.Terms {
		out = out.add(e.valOf(t, tm.Attr).scale(tm.Coef))
	}
	if on {
		out = out.add(varAff(e.m, pv))
	} else {
		out = out.add(constAff(sc.Expr.Const))
	}
	return out
}

// encodeUpdate walks all tracked tuples through an UPDATE (Eq. 1–4).
func (e *encoder) encodeUpdate(qi int, q *query.Update, pc pctx) {
	for _, t := range e.order {
		if t.alive.isFalse() {
			continue
		}
		x := e.evalCond(q.Where, t, pc)
		x = e.andB(x, t.alive)
		e.noteSigma(qi, t, pc, x)
		if x.isFalse() {
			continue
		}
		// Compute all µ values before assigning (simultaneous SET).
		newVals := make([]aff, len(q.Set))
		for si, sc := range q.Set {
			var pv milp.Var
			if pc.on {
				pv = pc.setVars[si]
			}
			newVals[si] = e.combineSet(t, sc, pv, pc.on)
		}
		if x.isTrue() {
			for si, sc := range q.Set {
				if !t.trackedAttr[sc.Attr] && newVals[si].isConst() {
					continue // frozen attribute follows the dirty replay
				}
				e.promote(t, sc.Attr)
				t.vals[sc.Attr] = newVals[si]
			}
			continue
		}
		// Symbolic σ: values become x·µ + (1−x)·old.
		assigned := make([]aff, len(q.Set))
		for si, sc := range q.Set {
			e.promote(t, sc.Attr)
			assigned[si] = e.choose(x, newVals[si], t.vals[sc.Attr])
		}
		for si, sc := range q.Set {
			t.vals[sc.Attr] = assigned[si]
		}
	}
}

// encodeDelete threads liveness through a DELETE (Eq. 6 with explicit
// liveness instead of the sentinel).
func (e *encoder) encodeDelete(qi int, q *query.Delete, pc pctx) {
	for _, t := range e.order {
		if t.alive.isFalse() {
			continue
		}
		x := e.evalCond(q.Where, t, pc)
		x = e.andB(x, t.alive)
		e.noteSigma(qi, t, pc, x)
		if x.isFalse() {
			continue
		}
		if x.isTrue() {
			t.alive = knownB(false)
			continue
		}
		// alive' = alive AND NOT x.
		na := e.m.NewBinary()
		e.stats.Binaries++
		xA := x.asAff(e.m)
		naA := varAff(e.m, na)
		// na <= 1 - x
		rowLE(e.m, naA.add(xA), 1)
		if t.alive.isTrue() {
			// na = 1 - x exactly.
			rowGE(e.m, naA.add(xA), 1)
		} else {
			aA := t.alive.asAff(e.m)
			// na <= alive ; na >= alive - x
			rowLE(e.m, naA.add(aA.scale(-1)), 0)
			rowGE(e.m, naA.add(aA.scale(-1)).add(xA), 0)
		}
		t.alive = varB(na)
	}
}

// encodeInsert registers the tuple born at query qi (Eq. 5). A
// parameterized insert's values are parameter variables; the tuple always
// exists (inserts are repaired by changing values, as in the paper).
func (e *encoder) encodeInsert(qi int, q *query.Insert, pc pctx, newID int64) {
	t := e.newTstate(newID, q.Values)
	if !pc.on {
		return
	}
	for a := 0; a < e.width; a++ {
		t.trackedAttr[a] = true
		t.vals[a] = varAff(e.m, pc.setVars[a])
	}
}

// sigmaKey addresses the σ literal of (query index, tuple ID).
type sigmaKey struct {
	Query int
	Tuple int64
}

// noteSigma records σ literals of parameterized queries for the
// refinement objective.
func (e *encoder) noteSigma(qi int, t *tstate, pc pctx, x bval) {
	if !pc.on {
		return
	}
	k := sigmaKey{Query: qi, Tuple: t.id}
	if x.known {
		if x.b {
			e.sigmaTrue[k] = true
		}
		e.stats.FoldedSigmas++
		return
	}
	e.sigma[k] = x.v
	e.stats.SymbolSigmas++
}

// choose linearizes x·aTrue + (1−x)·aFalse via fresh u, v variables and
// the big-M box constraints of Eq. 3 (generalized to symmetric bounds).
func (e *encoder) choose(x bval, aTrue, aFalse aff) aff {
	xA := x.asAff(e.m)
	tl, th := finiteOr(aTrue.lo, e.M), finiteOr(aTrue.hi, e.M)
	fl, fh := finiteOr(aFalse.lo, e.M), finiteOr(aFalse.hi, e.M)

	u := e.m.NewContinuous(math.Min(tl, 0), math.Max(th, 0))
	uA := varAff(e.m, u)
	// u <= aTrue - tl(1-x)   <=>  u - aTrue - tl·x <= -tl
	rowLE(e.m, uA.add(aTrue.scale(-1)).add(xA.scale(-tl)), -tl)
	// u >= aTrue - th(1-x)
	rowGE(e.m, uA.add(aTrue.scale(-1)).add(xA.scale(-th)), -th)
	// u <= th·x ; u >= tl·x
	rowLE(e.m, uA.add(xA.scale(-th)), 0)
	rowGE(e.m, uA.add(xA.scale(-tl)), 0)

	v := e.m.NewContinuous(math.Min(fl, 0), math.Max(fh, 0))
	vA := varAff(e.m, v)
	// v <= aFalse - fl·x ; v >= aFalse - fh·x
	rowLE(e.m, vA.add(aFalse.scale(-1)).add(xA.scale(fl)), 0)
	rowGE(e.m, vA.add(aFalse.scale(-1)).add(xA.scale(fh)), 0)
	// v <= fh(1-x) ; v >= fl(1-x)
	rowLE(e.m, vA.add(xA.scale(fh)), fh)
	rowGE(e.m, vA.add(xA.scale(fl)), fl)

	out := uA.add(vA)
	out.lo = math.Min(aTrue.lo, aFalse.lo)
	out.hi = math.Max(aTrue.hi, aFalse.hi)
	return out
}
