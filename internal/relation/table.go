package relation

import (
	"fmt"
	"math"
	"sort"
)

// Tuple is one row. ID is a stable identity assigned at insertion time and
// preserved across replays: replaying the true and the corrupted log from
// the same D0 inserts tuples in the same order, so IDs line up and final
// states can be diffed tuple-wise (§7.1 "tuple-wise comparison").
type Tuple struct {
	ID     int64
	Values []float64
}

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	return Tuple{ID: t.ID, Values: append([]float64(nil), t.Values...)}
}

// Equal reports whether two tuples carry the same values within eps.
func (t Tuple) Equal(o Tuple, eps float64) bool {
	if len(t.Values) != len(o.Values) {
		return false
	}
	for i, v := range t.Values {
		if math.Abs(v-o.Values[i]) > eps {
			return false
		}
	}
	return true
}

// Table is an ordered multiset of tuples under a fixed schema. Order is
// insertion order; deletion preserves the order of survivors.
type Table struct {
	schema *Schema
	rows   []Tuple
	byID   map[int64]int // tuple ID -> index in rows
	nextID int64
}

// NewTable returns an empty table with the given schema.
func NewTable(schema *Schema) *Table {
	return &Table{schema: schema, byID: make(map[int64]int), nextID: 1}
}

// NewTableFromRows reconstructs a table from explicit rows and ID
// counter — the deserialization entry point for wire formats that must
// reproduce a table state exactly, including tuple identities and the
// IDs future inserts will allocate (replay correctness depends on both).
// Rows keep their order; values are copied.
func NewTableFromRows(schema *Schema, rows []Tuple, nextID int64) (*Table, error) {
	tb := NewTable(schema)
	for _, t := range rows {
		if len(t.Values) != schema.Width() {
			return nil, fmt.Errorf("relation: row %d arity %d != schema width %d",
				t.ID, len(t.Values), schema.Width())
		}
		if _, dup := tb.byID[t.ID]; dup {
			return nil, fmt.Errorf("relation: duplicate tuple id %d", t.ID)
		}
		tb.byID[t.ID] = len(tb.rows)
		tb.rows = append(tb.rows, t.Clone())
		if t.ID >= tb.nextID {
			tb.nextID = t.ID + 1
		}
	}
	if nextID >= tb.nextID {
		tb.nextID = nextID
	}
	return tb, nil
}

// Schema returns the table's schema.
func (tb *Table) Schema() *Schema { return tb.schema }

// NextID returns the ID the next insert will be assigned. Serializers
// carry it so a reconstructed table allocates identical IDs on replay.
func (tb *Table) NextID() int64 { return tb.nextID }

// Len returns the number of live tuples.
func (tb *Table) Len() int { return len(tb.rows) }

// Insert appends a tuple with a fresh ID and returns it.
func (tb *Table) Insert(values []float64) (Tuple, error) {
	if len(values) != tb.schema.Width() {
		return Tuple{}, fmt.Errorf("relation: insert arity %d != schema width %d",
			len(values), tb.schema.Width())
	}
	t := Tuple{ID: tb.nextID, Values: append([]float64(nil), values...)}
	tb.nextID++
	tb.byID[t.ID] = len(tb.rows)
	tb.rows = append(tb.rows, t)
	return t, nil
}

// MustInsert is Insert that panics on arity mismatch.
func (tb *Table) MustInsert(values ...float64) Tuple {
	t, err := tb.Insert(values)
	if err != nil {
		panic(err)
	}
	return t
}

// Delete removes the tuple with the given ID, reporting whether it existed.
func (tb *Table) Delete(id int64) bool {
	i, ok := tb.byID[id]
	if !ok {
		return false
	}
	copy(tb.rows[i:], tb.rows[i+1:])
	tb.rows = tb.rows[:len(tb.rows)-1]
	delete(tb.byID, id)
	for j := i; j < len(tb.rows); j++ {
		tb.byID[tb.rows[j].ID] = j
	}
	return true
}

// DeleteBatch removes every live tuple whose ID is listed (unknown and
// repeated IDs are ignored) and returns how many went. Survivors keep
// their order. It is one pass from the first doomed row — rows compacted
// and each moved row's byID entry rewritten once — where a Delete per ID
// would re-index the tail once per doomed row.
func (tb *Table) DeleteBatch(ids []int64) int {
	first, n := len(tb.rows), 0
	for _, id := range ids {
		i, ok := tb.byID[id]
		if !ok {
			continue
		}
		delete(tb.byID, id)
		tb.rows[i].Values = nil // doomed: a live row has at least one value
		first = min(first, i)
		n++
	}
	if n == 0 {
		return 0
	}
	w := first
	for _, t := range tb.rows[first:] {
		if t.Values == nil {
			continue
		}
		tb.rows[w] = t
		tb.byID[t.ID] = w
		w++
	}
	clear(tb.rows[w:])
	tb.rows = tb.rows[:w]
	return n
}

// Get returns a copy of the tuple with the given ID.
func (tb *Table) Get(id int64) (Tuple, bool) {
	t, ok := tb.lookup(id)
	if !ok {
		return Tuple{}, false
	}
	return t.Clone(), true
}

// lookup returns the tuple with the given ID without copying it: the
// result aliases table storage.
func (tb *Table) lookup(id int64) (Tuple, bool) {
	i, ok := tb.byID[id]
	if !ok {
		return Tuple{}, false
	}
	return tb.rows[i], true
}

// ReadValues copies the values of the tuple with the given ID into dst
// (which must have the schema's width), reporting whether the tuple is
// live; dst is untouched when it is not. It is Get without the allocation.
func (tb *Table) ReadValues(id int64, dst []float64) bool {
	t, ok := tb.lookup(id)
	if ok {
		copy(dst, t.Values)
	}
	return ok
}

// Set overwrites the values of the tuple with the given ID.
func (tb *Table) Set(id int64, values []float64) error {
	i, ok := tb.byID[id]
	if !ok {
		return fmt.Errorf("relation: no tuple with id %d", id)
	}
	if len(values) != tb.schema.Width() {
		return fmt.Errorf("relation: set arity %d != schema width %d",
			len(values), tb.schema.Width())
	}
	copy(tb.rows[i].Values, values)
	return nil
}

// Rows calls f on each live tuple in order. The tuple passed to f aliases
// table storage; f must not retain or mutate it.
func (tb *Table) Rows(f func(Tuple)) {
	for _, t := range tb.rows {
		f(t)
	}
}

// Update applies f to every live tuple in order; f may mutate the values
// slice in place. It is the primitive beneath UPDATE execution.
func (tb *Table) Update(f func(t *Tuple)) {
	for i := range tb.rows {
		f(&tb.rows[i])
	}
}

// UpdateRow applies f to the live tuple with the given ID, reporting
// whether there is one; f may mutate the values slice in place. It is
// Update for a caller that already knows which rows a statement can
// match.
func (tb *Table) UpdateRow(id int64, f func(t *Tuple)) bool {
	i, ok := tb.byID[id]
	if ok {
		f(&tb.rows[i])
	}
	return ok
}

// At returns a copy of the tuple at position i in insertion order.
func (tb *Table) At(i int) Tuple { return tb.rows[i].Clone() }

// IDs returns the IDs of live tuples in insertion order.
func (tb *Table) IDs() []int64 {
	ids := make([]int64, len(tb.rows))
	for i, t := range tb.rows {
		ids[i] = t.ID
	}
	return ids
}

// Clone returns a deep copy sharing nothing with the receiver. The ID
// counter is preserved so replays from a cloned state allocate identical
// IDs.
func (tb *Table) Clone() *Table {
	c := &Table{schema: tb.schema, rows: make([]Tuple, len(tb.rows)),
		byID: make(map[int64]int, len(tb.byID)), nextID: tb.nextID}
	for i, t := range tb.rows {
		c.rows[i] = t.Clone()
		c.byID[t.ID] = i
	}
	return c
}

// Diff describes how one tuple differs between two table states.
// Before==nil means the tuple exists only in the "after" state (inserted);
// After==nil means it exists only in the "before" state (deleted);
// otherwise values changed.
type Diff struct {
	ID     int64
	Before *Tuple
	After  *Tuple
}

// DiffTables compares two states tuple-wise by ID and returns all
// differences, ordered by tuple ID. eps is the value-equality tolerance.
func DiffTables(before, after *Table, eps float64) []Diff {
	var out []Diff
	for _, t := range before.rows {
		if a, ok := after.lookup(t.ID); ok {
			if !t.Equal(a, eps) {
				bc, ac := t.Clone(), a.Clone()
				out = append(out, Diff{ID: t.ID, Before: &bc, After: &ac})
			}
		} else {
			bc := t.Clone()
			out = append(out, Diff{ID: t.ID, Before: &bc})
		}
	}
	for _, t := range after.rows {
		if _, ok := before.byID[t.ID]; !ok {
			ac := t.Clone()
			out = append(out, Diff{ID: t.ID, After: &ac})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
