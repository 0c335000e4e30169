package encode

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/freelist"
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
	complaint   int // 1 + the index of the tuple's complaint; 0 for none
}

type encoder struct {
	m     *milp.Model
	opt   Options
	log   []query.Query // the caller's, read only
	sch   *relation.Schema
	width int
	M     float64

	start    int   // the first statement walked
	nextID   int64 // the ID the next INSERT assigns
	trackAll bool
	attrSeed []bool // nil = track all attributes

	params []ParamRef
	stats  Stats

	storage
}

// storage is what an encoder keeps from one Encode to the next, so that
// an encoding grown no larger than the last allocates none of it. Its
// zero value is ready for use but for the maps, which newEncoder makes.
type storage struct {
	tracked   map[int64]*tstate
	order     []*tstate
	wantIDs   map[int64]bool // unused when trackAll
	softIDs   map[int64]bool
	paramOrig map[milp.Var]float64
	sigma     map[sigmaKey]milp.Var
	sigmaTrue map[sigmaKey]bool       // folded-true σ of parameterized queries
	windows   map[milp.Var][2]float64 // predicate-parameter LHS ranges

	tuples   slab[tstate] // the tracked tuples; then their per-attribute state
	affs     slab[aff]
	bools    slab[bool]
	floats   slab[float64]
	terms    slab[milp.Term] // of every aff built; rows live in rowTerms
	rowTerms []milp.Term     // the row being built
	rowC     float64         // its constant
	vals     []aff           // encodeUpdate's new and assigned values
	ids      []int64         // the tuples to seed, ascending
}

// encoders is the free list Encode takes its encoders from.
var encoders freelist.List[*encoder]

// release hands the encoder back for the next Encode. Nothing returned
// points into it: the model copies each row, Params is handed over.
func (e *encoder) release() {
	st := e.storage
	clear(st.tracked)
	clear(st.wantIDs)
	clear(st.softIDs)
	clear(st.paramOrig)
	clear(st.sigma)
	clear(st.sigmaTrue)
	clear(st.windows)
	st.order, st.ids = st.order[:0], st.ids[:0]
	st.tuples.reset()
	st.affs.reset()
	st.bools.reset()
	st.floats.reset()
	st.terms.reset()
	*e = encoder{storage: st}
	encoders.Put(e)
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
	defer e.release()
	for i := e.start; i < len(e.log); i++ {
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

// newEncoder sets up the encoder at the first statement it walks: the
// slicing scopes, the domain bound, and the tracked tuples as the
// history has them there.
func newEncoder(d0 *relation.Table, log []query.Query, complaints []Complaint, opt Options) (*encoder, error) {
	h := opt.History
	if h == nil {
		h = new(query.History)
		if _, err := h.Replay(log, d0); err != nil {
			return nil, fmt.Errorf("encode: replaying the log: %w", err)
		}
	}
	e := encoders.Get()
	if e == nil {
		e = &encoder{storage: storage{
			tracked:   make(map[int64]*tstate),
			wantIDs:   make(map[int64]bool),
			softIDs:   make(map[int64]bool),
			paramOrig: make(map[milp.Var]float64),
			sigma:     make(map[sigmaKey]milp.Var),
			sigmaTrue: make(map[sigmaKey]bool),
			windows:   make(map[milp.Var][2]float64),
		}}
	}
	e.m, e.opt, e.log = milp.NewModel(), opt, log
	e.sch, e.width = d0.Schema(), d0.Schema().Width()
	e.M = opt.DomainBound
	if e.M <= 0 {
		rows, err := h.Diverged(log)
		if err != nil {
			return nil, fmt.Errorf("encode: %w", err)
		}
		e.M = DomainBound(d0, log, h.Final(), rows...)
	}
	e.trackAll = opt.TupleIDs == nil
	for _, id := range opt.TupleIDs {
		e.wantIDs[id] = true
	}
	for _, id := range opt.SoftTupleIDs {
		e.softIDs[id] = true
		if !e.trackAll {
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
		if !e.trackAll {
			e.wantIDs[c.TupleID] = true
		}
	}

	// The walk starts at the first parameterized statement, or the first
	// one the logs do not share if that comes before: the statements
	// before it are constant, so they emit nothing and leave each tuple
	// in the state the history records. The recorded log (the same
	// slice) shares the prefix; another is compared.
	e.start = len(log)
	for i, on := range opt.ParamQueries {
		if on && i >= 0 && i < e.start {
			e.start = i
		}
	}
	if rec := h.Log(); e.start > 0 && (len(rec) < e.start || &rec[0] != &log[0]) {
		for i := 0; i < e.start; i++ {
			if i == len(rec) || log[i] != rec[i] {
				e.start = i
			}
		}
	}
	// Seed the tracked tuples there, a tuple deleted before it as dead.
	if e.trackAll {
		d0.Rows(func(t relation.Tuple) { e.ids = append(e.ids, t.ID) })
		id := d0.NextID()
		for _, q := range log[:e.start] {
			if _, ok := q.(*query.Insert); ok {
				e.ids = append(e.ids, id)
				id++
			}
		}
	} else {
		for id := range e.wantIDs {
			e.ids = append(e.ids, id)
		}
		slices.Sort(e.ids)
	}
	e.nextID = h.Before(e.start, e.ids, func(id int64, vals []float64, live bool) {
		if t := e.newTstate(id, vals); !live {
			t.dirtyAlive, t.alive = false, knownB(false)
		}
	})
	return e, nil
}

// step encodes log entry i over the tracked tuples and carries their
// dirty values past it.
func (e *encoder) step(i int) error {
	q := e.log[i]
	switch v := q.(type) {
	case *query.Update:
		if err := v.CheckSet(e.width); err != nil {
			return fmt.Errorf("encode: query %d: %w", i, err)
		}
		e.encodeUpdate(i, v, e.paramize(i, q))
	case *query.Delete:
		e.encodeDelete(i, v, e.paramize(i, q))
	case *query.Insert:
		if len(v.Values) != e.width {
			return fmt.Errorf("encode: query %d: INSERT of %d values into %d attributes", i, len(v.Values), e.width)
		}
		pc := e.paramize(i, q)
		if e.trackAll || e.wantIDs[e.nextID] {
			e.encodeInsert(v, pc, e.nextID)
		}
		e.nextID++ // an untracked row takes its ID all the same
		return nil // and no tuple's dirty values change
	default:
		return fmt.Errorf("encode: unsupported query kind %T at index %d", q, i)
	}
	e.flushWindows()
	for _, t := range e.order {
		if t.dirtyAlive {
			t.dirtyAlive = q.ApplyRow(t.dirtyVals)
		}
	}
	return nil
}

// DomainBound derives the big-M domain bound Encode uses when
// Options.DomainBound is zero: twice the largest absolute value seen in
// the initial state, the log's final state (final = Replay(log, d0)) or
// any query constant, plus slack.
// replaced lists rows by ascending ID that take the place of final's
// rows of the same ID or join them (nil Values: the row is gone), for a
// final state held as another one with the rows that differ.
func DomainBound(d0 *relation.Table, log []query.Query, final *relation.Table, replaced ...relation.Tuple) float64 {
	maxAbs := 1.0
	d0.Rows(func(t relation.Tuple) { maxAbs = maxAbsOf(maxAbs, t.Values) })
	// One scratch vector for every statement's constants, with room for
	// an INSERT's values and an UPDATE that sets and tests every attribute.
	params := make([]float64, 0, 2*d0.Schema().Width())
	for _, q := range log {
		params = q.AppendParams(params[:0])
		maxAbs = maxAbsOf(maxAbs, params)
	}
	i := 0
	final.Rows(func(t relation.Tuple) {
		for i < len(replaced) && replaced[i].ID < t.ID {
			i++
		}
		if i == len(replaced) || replaced[i].ID != t.ID {
			maxAbs = maxAbsOf(maxAbs, t.Values)
		}
	})
	for _, t := range replaced {
		maxAbs = maxAbsOf(maxAbs, t.Values)
	}
	return 2*maxAbs + 10
}

// maxAbsOf returns the larger of m and the largest |v| of vs.
func maxAbsOf(m float64, vs []float64) float64 {
	for _, v := range vs {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// newTstate registers a tracked tuple whose current values are known
// constants (a D0 row or a non-parameterized insert).
func (e *encoder) newTstate(id int64, values []float64) *tstate {
	t := &e.tuples.take(1)[0]
	*t = tstate{
		id:          id,
		vals:        e.affs.take(e.width),
		trackedAttr: e.bools.take(e.width),
		dirtyVals:   e.floats.take(e.width),
		dirtyAlive:  true,
		alive:       knownB(true),
		soft:        e.softIDs[id],
	}
	copy(t.dirtyVals, values)
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

// paramize creates parameter variables (and distance objective terms)
// for query i when it is marked for repair.
func (e *encoder) paramize(i int, q query.Query) pctx {
	if !e.opt.ParamQueries[i] {
		return pctx{}
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
	return pc
}

// combineSet builds µ's value for one SET clause over the tuple's current
// symbolic state; the clause constant becomes a parameter variable when
// the query is parameterized.
func (e *encoder) combineSet(t *tstate, sc query.SetClause, pv milp.Var, on bool) aff {
	out := constAff(0)
	for _, tm := range sc.Expr.Terms {
		out = e.addScaled(out, tm.Coef, e.valOf(t, tm.Attr))
	}
	if on {
		return e.addScaled(out, 1, varAff(e.m, pv))
	}
	return e.addScaled(out, 1, constAff(sc.Expr.Const))
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
		e.vals = slices.Grow(e.vals[:0], 2*len(q.Set))[:2*len(q.Set)]
		newVals, assigned := e.vals[:len(q.Set)], e.vals[len(q.Set):]
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
		xA := x.asAff(e.m)
		naA := varAff(e.m, na)
		// na <= 1 - x
		e.row(naA).plus(1, xA).le(1)
		if t.alive.isTrue() {
			// na = 1 - x exactly.
			e.row(naA).plus(1, xA).ge(1)
		} else {
			aA := t.alive.asAff(e.m)
			// na <= alive ; na >= alive - x
			e.row(naA).plus(-1, aA).le(0)
			e.row(naA).plus(-1, aA).plus(1, xA).ge(0)
		}
		t.alive = varB(na)
	}
}

// encodeInsert registers the tuple an INSERT gives newID (Eq. 5). A
// parameterized insert's values are parameter variables; the tuple always
// exists (inserts are repaired by changing values, as in the paper).
func (e *encoder) encodeInsert(q *query.Insert, pc pctx, newID int64) {
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
	e.row(uA).plus(-1, aTrue).plus(-tl, xA).le(-tl)
	// u >= aTrue - th(1-x)
	e.row(uA).plus(-1, aTrue).plus(-th, xA).ge(-th)
	// u <= th·x ; u >= tl·x
	e.row(uA).plus(-th, xA).le(0)
	e.row(uA).plus(-tl, xA).ge(0)

	v := e.m.NewContinuous(math.Min(fl, 0), math.Max(fh, 0))
	vA := varAff(e.m, v)
	// v <= aFalse - fl·x ; v >= aFalse - fh·x
	e.row(vA).plus(-1, aFalse).plus(fl, xA).le(0)
	e.row(vA).plus(-1, aFalse).plus(fh, xA).ge(0)
	// v <= fh(1-x) ; v >= fl(1-x)
	e.row(vA).plus(fh, xA).le(fh)
	e.row(vA).plus(fl, xA).ge(fl)

	// u + v, over the union of both sides' ranges (u < v: made first).
	out := aff{terms: e.terms.take(2), lo: math.Min(aTrue.lo, aFalse.lo), hi: math.Max(aTrue.hi, aFalse.hi)}
	out.terms[0] = milp.Term{Var: u, Coef: 1}
	out.terms[1] = milp.Term{Var: v, Coef: 1}
	return out
}
