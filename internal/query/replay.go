package query

import (
	"fmt"
	"slices"

	"repro/internal/relation"
)

// Replay clones d0 and applies every query in the log, returning the
// final state Dn = Q(D0).
func Replay(log []Query, d0 *relation.Table) (*relation.Table, error) {
	return newExecutor(log, d0).run(log)
}

// Whether a replay indexes an attribute is a matter of cost. With p
// point statements on it and a table of r rows, scanning for them costs
// p·r predicate evaluations; the index costs about buildEvals
// evaluations' worth per row to build (a map update, an entry) and each
// statement about lookupRows rows' worth to find its chain and rows
// (a map lookup, a call per row). It is built when
// p·(r − lookupRows) > buildEvals·r: never for a table of a dozen rows,
// from about thirty statements on a table of 30 rows, from about fifteen
// on a large one. The constants are where BenchmarkReplayOLTP's two
// sides cross on TATP logs of 4 to 1000 rows and 8 to 128 statements.
const (
	lookupRows = 12
	buildEvals = 14
)

// executor applies the statements of one replay to one table. It leaves
// the table exactly as q.Apply per statement would; what it saves is the
// full scan of a point statement: one whose WHERE is, or has as a direct
// conjunct of its top-level AND, "attr = c". Such a statement can match
// only rows holding c in attr, so for each attribute the log selects on
// often enough the executor keeps a hash index value → row IDs and hands
// the statement that one chain. The index is only a prefilter — the
// whole WHERE still decides every candidate row — and every other
// UPDATE or DELETE runs the scan of its own Apply. A replay that records a
// History tells it which rows each statement matched.
type executor struct {
	tb      *relation.Table
	index   []attrIndex // per attribute of the schema
	inserts int         // INSERTs of the log not yet applied
	h       *History    // told which rows each statement matched; nil when not recording
	at      int         // the statement being applied

	// Scratch of the statement being applied.
	newVals []float64 // SET values (Update.assign)
	written []int     // indexed attributes the UPDATE sets
	old     []float64 // their values in the row at hand, before it ran
	ids     []int64   // the rows to visit (UPDATE) or remove (DELETE)
}

// attrIndex is the point-lookup index of one attribute, flat: one map
// from a value to the first entry of its chain, and every chain's entries
// in one slice. An entry names a row and links to the next entry of its
// chain. A chain lists the ID of every live row holding its value (NaN,
// which equals nothing, has none), each once, and possibly IDs of rows
// deleted since: IDs are never reused, so those resolve to no row and are
// skipped. A row whose value changes takes its entry to the other chain,
// so an index holds about one entry per row it ever listed and is built
// in a handful of allocations, where a slice per value took one each.
// Chains list their rows in no particular order: an UPDATE's rows are
// independent of one another, and a DELETE removes its rows in table
// order whatever order it found them in.
type attrIndex struct {
	points int               // statements of the log with an equality conjunct on it
	want   bool              // which are enough to index it
	built  bool              // false until first used, and after a scanning UPDATE wrote the attribute
	head   map[float64]int32 // value → its chain's first entry, as an entry link
	ents   []indexEntry
}

// indexEntry is one row on a chain. Links to entries are their position
// in attrIndex.ents plus one, so that zero, a map's and a slice's zero
// value, ends a chain.
type indexEntry struct {
	id   int64
	next int32
}

// newExecutor prepares a replay of log over a clone of d0, sized for the
// log's INSERTs up front so that the replay never regrows it.
func newExecutor(log []Query, d0 *relation.Table) *executor {
	x := &executor{index: make([]attrIndex, d0.Schema().Width())}
	for _, q := range log {
		switch q := q.(type) {
		case *Update:
			x.countPoints(q.Where)
		case *Delete:
			x.countPoints(q.Where)
		case *Insert:
			x.inserts++
		}
	}
	x.tb = d0.CloneWithRoom(x.inserts)
	rows := x.tb.Len() + x.inserts // the table can grow to this many
	for a := range x.index {
		ix := &x.index[a]
		ix.want = len(log) > buildEvals && ix.points*(rows-lookupRows) > buildEvals*rows
	}
	return x
}

// pointAttr reports the attribute p selects on when p is "attr = c"
// over an attribute of the schema.
func (x *executor) pointAttr(p *Pred) (int, bool) {
	if p.Op != EQ || len(p.LHS.Terms) != 1 || p.LHS.Terms[0].Coef != 1 {
		return 0, false
	}
	a := p.LHS.Terms[0].Attr
	return a, a >= 0 && a < len(x.index)
}

// conjuncts lists the conditions that must all hold for where to hold,
// as far as the top level shows.
func conjuncts(where Cond, one *[1]Cond) []Cond {
	if and, ok := where.(*And); ok {
		return and.Kids
	}
	one[0] = where
	return one[:]
}

func (x *executor) countPoints(where Cond) {
	var one [1]Cond
	for _, c := range conjuncts(where, &one) {
		if p, ok := c.(*Pred); ok {
			if a, ok := x.pointAttr(p); ok {
				x.index[a].points++
			}
		}
	}
}

// pointPred returns the first equality conjunct of where on an indexed
// attribute, or nil when the statement has to scan.
func (x *executor) pointPred(where Cond) *Pred {
	var one [1]Cond
	for _, c := range conjuncts(where, &one) {
		if p, ok := c.(*Pred); ok {
			if a, ok := x.pointAttr(p); ok && x.index[a].want {
				return p
			}
		}
	}
	return nil
}

// run applies the log to the executor's table and returns it.
func (x *executor) run(log []Query) (*relation.Table, error) {
	for i, q := range log {
		x.at = i
		if err := x.apply(q); err != nil {
			return nil, fmt.Errorf("query %d (%s): %w", i, q.Kind(), err)
		}
	}
	return x.tb, nil
}

// apply runs one statement.
func (x *executor) apply(q Query) error {
	if _, ok := q.(*Insert); ok {
		x.inserts--
	}
	switch q := q.(type) {
	case *Update:
		if p := x.pointPred(q.Where); p != nil {
			return x.update(q, p)
		}
		var matched func(int64) // nil unless recording: q.Apply's own scan
		if x.h != nil {
			matched = x.match
		}
		if err := q.scan(x.tb, matched); err != nil {
			return err
		}
		for _, sc := range q.Set {
			x.index[sc.Attr].built = false // rewritten behind the index's back
		}
		return nil
	case *Delete:
		x.ids = x.ids[:0]
		if p := x.pointPred(q.Where); p != nil {
			x.delete(q, p)
		} else {
			x.ids = q.matching(x.tb, x.ids)
		}
		for _, id := range x.ids {
			x.match(id)
		}
		x.tb.DeleteBatch(x.ids) // index entries stay, and resolve to nothing
		return nil
	case *Insert:
		id := x.tb.NextID()
		if err := q.Apply(x.tb); err != nil {
			return err
		}
		for a := range x.index {
			if x.index[a].built {
				x.index[a].add(q.Values[a], id)
			}
		}
		if x.h != nil {
			x.h.ins = append(x.h.ins, int32(x.at))
		}
		return nil
	}
	if x.h != nil {
		return fmt.Errorf("query: no history of a %T statement", q)
	}
	// A statement kind this file does not know may write anything.
	for a := range x.index {
		x.index[a].built = false
	}
	return q.Apply(x.tb)
}

// match tells the history, when the replay records one, that the
// statement being applied matched row id.
func (x *executor) match(id int64) {
	if x.h != nil {
		x.h.match(id, x.at)
	}
}

// chain returns the index of the attribute p selects on, building it if
// it is not built, and the link to the first entry of the chain of p's
// value. A build sizes the entries for every row the table has and every
// INSERT still to come, and reuses what an earlier build of the
// attribute allocated.
func (x *executor) chain(p *Pred) (*attrIndex, int32) {
	a := p.LHS.Terms[0].Attr
	ix := &x.index[a]
	if !ix.built {
		if ix.head == nil {
			ix.head = make(map[float64]int32, x.tb.Len())
		}
		clear(ix.head)
		ix.ents = slices.Grow(ix.ents[:0], x.tb.Len()+x.inserts)
		x.tb.Rows(func(t relation.Tuple) { ix.add(t.Values[a], t.ID) })
		ix.built = true
	}
	return ix, ix.head[p.RHS]
}

func (x *executor) update(u *Update, p *Pred) error {
	if err := u.checkSet(len(x.index)); err != nil {
		return err
	}
	x.ids = x.ids[:0] // a copy of the chain: a row that moves leaves it
	for ix, e := x.chain(p); e != 0; e = ix.ents[e-1].next {
		x.ids = append(x.ids, ix.ents[e-1].id)
	}
	x.written = x.written[:0]
	for _, sc := range u.Set {
		if x.index[sc.Attr].built && !slices.Contains(x.written, sc.Attr) {
			x.written = append(x.written, sc.Attr)
		}
	}
	x.newVals = slices.Grow(x.newVals[:0], len(u.Set))[:len(u.Set)]
	x.old = slices.Grow(x.old[:0], len(x.written))[:len(x.written)]
	row := func(t relation.Tuple) {
		for k, a := range x.written {
			x.old[k] = t.Values[a]
		}
		if !u.Where.Eval(t.Values) {
			return
		}
		u.assign(t.Values, x.newVals)
		x.match(t.ID)
		for k, a := range x.written {
			if v := t.Values[a]; v != x.old[k] {
				x.index[a].move(t.ID, x.old[k], v)
			}
		}
	}
	for _, id := range x.ids {
		x.tb.UpdateRow(id, row)
	}
	return nil
}

// delete lists in x.ids the rows on p's chain that q's WHERE matches.
func (x *executor) delete(q *Delete, p *Pred) {
	row := func(t relation.Tuple) {
		if q.Where.Eval(t.Values) {
			x.ids = append(x.ids, t.ID)
		}
	}
	for ix, e := x.chain(p); e != 0; e = ix.ents[e-1].next {
		x.tb.UpdateRow(ix.ents[e-1].id, row)
	}
}

// add lists row id on the chain of v, in a new entry.
func (ix *attrIndex) add(v float64, id int64) {
	if v == v {
		ix.ents = append(ix.ents, indexEntry{id: id, next: ix.head[v]})
		ix.head[v] = int32(len(ix.ents))
	}
}

// move takes row id from the chain of from to the chain of to, in the
// entry it had.
func (ix *attrIndex) move(id int64, from, to float64) {
	e := ix.unlink(id, from)
	switch {
	case to != to: // NaN: on no chain
	case e == 0:
		ix.add(to, id)
	default:
		ix.ents[e-1].next = ix.head[to]
		ix.head[to] = e
	}
}

// unlink takes row id off the chain of v and returns the link to its
// entry, or zero when the chain does not list it.
func (ix *attrIndex) unlink(id int64, v float64) int32 {
	if v != v {
		return 0
	}
	var prev int32
	for e := ix.head[v]; e != 0; prev, e = e, ix.ents[e-1].next {
		if ix.ents[e-1].id != id {
			continue
		}
		if next := ix.ents[e-1].next; prev == 0 {
			ix.head[v] = next
		} else {
			ix.ents[prev-1].next = next
		}
		return e
	}
	return 0
}
