package query

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/relation"
)

// History is one replay of a log from D0 that remembers, for every row,
// the statements that matched it: each UPDATE whose WHERE held and the
// DELETE that removed it, and for an inserted row the INSERT it came
// from. A statement's effect on a row depends on that row alone (§5.2's
// tuple slicing), so this is enough to know the row's state before any
// statement without replaying the log again, and to verify a repair of
// the log by following only the rows its rewritten statements treat
// differently (Diverged).
//
// The zero History is empty; Replay fills it. Once filled it is only
// read, so any number of goroutines may call Diverged at once. The log
// and D0 it replayed must not change while it is in use.
type History struct {
	log      []Query
	d0       *relation.Table
	final    *relation.Table
	firstIns int64 // the ID of the log's first inserted row

	// Rows are numbered by slot: D0's row at position i is slot i, the
	// j-th inserted row slot d0.Len()+j. Slots ascend with IDs.
	ins  []int32 // per inserted row, the INSERT it came from
	head []int32 // per slot, the link to its newest entry; 0 for none
	ents []histEntry
}

// histEntry is one statement that matched a row, linked to the one
// before it that matched the same row, as a position in History.ents
// plus one (zero ends a chain). A chain runs from the newest statement
// to the oldest; a DELETE, after which nothing can match the row, is
// only ever the newest.
type histEntry struct {
	stmt int32
	next int32
}

// Replay replays log from d0 as the package's Replay does, recording
// the history into h, and returns the final state.
func (h *History) Replay(log []Query, d0 *relation.Table) (*relation.Table, error) {
	x := newExecutor(log, d0)
	*h = History{log: log, d0: d0, firstIns: d0.NextID(),
		ins:  make([]int32, 0, x.inserts),
		head: make([]int32, d0.Len()+x.inserts),
		ents: make([]histEntry, 0, len(log))}
	x.h = h
	final, err := x.run(log)
	if err != nil {
		*h = History{}
		return nil, err
	}
	h.final = final
	return final, nil
}

// match records that statement k matched the row with the given ID.
func (h *History) match(id int64, k int) {
	s := h.d0.Len() + int(id-h.firstIns)
	if id < h.firstIns {
		s, _ = h.d0.Pos(id)
	}
	h.ents = append(h.ents, histEntry{stmt: int32(k), next: h.head[s]})
	h.head[s] = int32(len(h.ents))
}

// Diverged returns the rows whose final state under log, a repair of
// the recorded log, is not the recorded final state. A repair keeps
// every statement of the recorded log but the ones it rewrites, and
// rewrites a statement only by giving it other constants (Clone and
// SetParams); a rewritten statement whose constants are bitwise the
// recorded one's counts as kept. The rows come by ascending ID, each
// with its exact values under log, or with nil Values when log leaves
// no such row; with them in place of its own rows the recorded final
// state is Replay(log, d0) bit for bit.
//
// No table is cloned and no prefix of the log replayed: from the first
// rewritten statement on, a row that already diverged is carried alone
// through each statement of log, and at each rewritten UPDATE or DELETE
// every live row that has not is tested under both versions, from its
// state just before the statement. That costs O(rewritten × rows +
// diverged × suffix).
func (h *History) Diverged(log []Query) ([]relation.Tuple, error) {
	if len(log) != len(h.log) {
		return nil, fmt.Errorf("query: a repair of a %d-statement log has %d", len(h.log), len(log))
	}
	width := h.d0.Schema().Width()
	var changed []int
	var pa, pb []float64
	for k, q := range log {
		old := h.log[k]
		if q == old {
			continue
		}
		if !sameStructure(q, old) {
			return nil, fmt.Errorf("query %d: %s is not a repair of %s", k, q.String(h.d0.Schema()), old.String(h.d0.Schema()))
		}
		if pa, pb = q.AppendParams(pa[:0]), old.AppendParams(pb[:0]); sameBits(pa, pb) {
			continue
		}
		if u, ok := q.(*Update); ok {
			if err := u.checkSet(width); err != nil {
				return nil, fmt.Errorf("query %d (%s): %w", k, q.Kind(), err)
			}
		}
		changed = append(changed, k)
	}
	if len(changed) == 0 {
		return nil, nil
	}

	v := &verifier{h: h, width: width,
		isDiv:   make([]uint64, (len(h.head)+63)/64),
		scratch: make([]float64, 3*width)}
	// The inserts before the first rewritten statement: the walk counts on
	// from there.
	ins, _ := slices.BinarySearch(h.ins, int32(changed[0]))
	for k := changed[0]; k < len(log); k++ {
		q := log[k]
		rewritten := len(changed) > 0 && changed[0] == k
		if rewritten {
			changed = changed[1:]
		}
		v.carry(q)
		switch q := q.(type) {
		case *Insert:
			if rewritten {
				v.diverge(h.d0.Len()+ins, h.firstIns+int64(ins), q.Values, true)
			}
			ins++
		case *Update, *Delete:
			if rewritten {
				v.sweep(k, q)
			}
		}
	}
	return v.rows(), nil
}

// sameBits reports whether two vectors hold the same bits.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Log returns the recorded log.
func (h *History) Log() []Query { return h.log }

// Before calls f for each row of ids (ascending) that statement k of
// the recorded log finds live or deleted, a row of D0 or of an INSERT
// before k, with its values just before k (a deleted row's when it was
// deleted; valid until f returns) and whether it is live. It returns the
// ID the next INSERT assigns. The states are a replay's of the first k
// statements, bit for bit, at the cost of the rows asked for.
func (h *History) Before(k int, ids []int64, f func(id int64, vals []float64, live bool)) int64 {
	width := h.d0.Schema().Width()
	v := &verifier{h: h, width: width, scratch: make([]float64, 2*width)}
	ins, _ := slices.BinarySearch(h.ins, int32(k))
	visit := func(slot int, id int64, orig []float64) {
		vals, live := v.before(k, slot, id, orig)
		if !live { // the DELETE that matched the row is its newest entry
			vals, _ = v.before(int(h.ents[h.head[slot]-1].stmt), slot, id, orig)
		}
		f(id, vals, live)
	}
	for _, id := range ids {
		if j := id - h.firstIns; j >= 0 && j < int64(ins) {
			visit(h.d0.Len()+int(j), id, h.log[h.ins[j]].(*Insert).Values)
		} else if slot, ok := h.d0.Pos(id); ok && h.d0.ReadValues(id, v.scratch[width:]) {
			visit(slot, id, v.scratch[width:])
		}
	}
	return h.firstIns + int64(ins)
}

// verifier is the state of one Diverged walk; Before uses its before.
type verifier struct {
	h       *History
	width   int
	div     []divRow
	vals    []float64 // the values of the diverged rows
	isDiv   []uint64  // by slot: the row diverged
	scratch []float64 // three rows: a dirty state and two candidate ones
	newVals []float64 // SET values (Update.assign)
	chain   []int32   // statements to apply again
}

// divRow is a row whose state under the repair is not its dirty one.
type divRow struct {
	slot  int
	id    int64
	off   int // its values are vals[off : off+width]
	alive bool
}

func (v *verifier) row(d divRow) []float64 { return v.vals[d.off : d.off+v.width : d.off+v.width] }

// assign applies u's SET clauses to a row u matched.
func (v *verifier) assign(u *Update, row []float64) {
	if len(v.newVals) < len(u.Set) {
		v.newVals = make([]float64, len(u.Set))
	}
	u.assign(row, v.newVals)
}

// carry applies q to every diverged row that is still live.
func (v *verifier) carry(q Query) {
	for i, d := range v.div {
		if !d.alive {
			continue
		}
		switch q := q.(type) {
		case *Update:
			if row := v.row(d); q.Where.Eval(row) {
				v.assign(q, row)
			}
		case *Delete:
			v.div[i].alive = !q.Where.Eval(v.row(d))
		}
	}
}

// diverge adds a row with its state under the repair.
func (v *verifier) diverge(slot int, id int64, vals []float64, alive bool) {
	v.isDiv[slot/64] |= 1 << (slot % 64)
	v.div = append(v.div, divRow{slot: slot, id: id, off: len(v.vals), alive: alive})
	v.vals = append(v.vals, vals...)
}

// sweep tests every row that is live before statement k and has not
// diverged against q, the repair's version of the statement, and the
// recorded one. A row diverges when the two differ in whether they
// match it, in the bits they assign it or in whether they delete it.
func (v *verifier) sweep(k int, q Query) {
	h := v.h
	slot := 0
	h.d0.Rows(func(t relation.Tuple) {
		v.test(k, q, slot, t.ID, t.Values)
		slot++
	})
	for j := 0; j < len(h.ins) && int(h.ins[j]) < k; j++ {
		v.test(k, q, slot, h.firstIns+int64(j), h.log[h.ins[j]].(*Insert).Values)
		slot++
	}
}

// test is sweep's step for one row; orig is its D0 or INSERT values.
func (v *verifier) test(k int, q Query, slot int, id int64, orig []float64) {
	if v.isDiv[slot/64]&(1<<(slot%64)) != 0 {
		return
	}
	vals, live := v.before(k, slot, id, orig)
	if !live {
		return
	}
	switch q := q.(type) {
	case *Update:
		old := v.h.log[k].(*Update)
		mo, mn := old.Where.Eval(vals), q.Where.Eval(vals)
		if !mo && !mn {
			return
		}
		w := v.width
		after := v.scratch[w : 2*w]
		copy(after, vals)
		if mn {
			v.assign(q, after)
		}
		if mo && mn {
			dirty := v.scratch[2*w:]
			copy(dirty, vals)
			v.assign(old, dirty)
			if sameBits(after, dirty) {
				return
			}
		}
		v.diverge(slot, id, after, true)
	case *Delete:
		mo, mn := v.h.log[k].(*Delete).Where.Eval(vals), q.Where.Eval(vals)
		if mo != mn {
			v.diverge(slot, id, vals, !mn)
		}
	}
}

// before returns the dirty state of a row just before statement k, and
// whether the row is live then: its final values when the last
// statement that matched it comes before k, else its D0 or INSERT values
// (orig) with the statements before k that matched it applied again —
// the same arithmetic as the replay's, so the same bits.
func (v *verifier) before(k, slot int, id int64, orig []float64) ([]float64, bool) {
	h := v.h
	e := h.head[slot]
	if e == 0 {
		return orig, true
	}
	dirty := v.scratch[:v.width]
	if last := h.ents[e-1].stmt; int(last) < k {
		if _, del := h.log[last].(*Delete); del {
			return nil, false
		}
		h.final.ReadValues(id, dirty)
		return dirty, true
	}
	v.chain = v.chain[:0]
	for ; e != 0; e = h.ents[e-1].next {
		if s := h.ents[e-1].stmt; int(s) < k {
			v.chain = append(v.chain, s)
		}
	}
	copy(dirty, orig)
	for i := len(v.chain) - 1; i >= 0; i-- {
		v.assign(h.log[v.chain[i]].(*Update), dirty)
	}
	return dirty, true
}

// rows lists the diverged rows whose final state is not the recorded
// one, by ascending ID.
func (v *verifier) rows() []relation.Tuple {
	slices.SortFunc(v.div, func(a, b divRow) int { return a.slot - b.slot })
	out := make([]relation.Tuple, 0, len(v.div))
	final := v.scratch[:v.width]
	for _, d := range v.div {
		inFinal := v.h.final.ReadValues(d.id, final)
		switch {
		case !d.alive:
			if inFinal {
				out = append(out, relation.Tuple{ID: d.id})
			}
		case !inFinal || !sameBits(v.row(d), final):
			out = append(out, relation.Tuple{ID: d.id, Values: v.row(d)})
		}
	}
	return out
}
