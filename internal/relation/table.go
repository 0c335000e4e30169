package relation

import (
	"fmt"
	"math"
	"slices"
)

// Tuple is one row. ID is a stable identity assigned at insertion time and
// preserved across replays: replaying the true and the corrupted log from
// the same D0 inserts tuples in the same order, so IDs line up and final
// states can be diffed tuple-wise (§7.1 "tuple-wise comparison").
//
// A Tuple handed out by a Table (Rows, Update, UpdateRow, Insert) is a
// view: Values aliases the table's storage, so writing through it writes
// the table, and it stays the row's values until the next Insert, Delete
// or DeleteBatch moves or reallocates that storage, or Grow
// reallocates it. Get and At return copies.
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
//
// Storage is row-major: row i's values are vals[i*width : (i+1)*width]
// and its ID is ids[i]. Insert always takes nextID, which is above every
// live ID, and deletion keeps order, so ids is strictly ascending. A row
// is found by its ID without a map: it sits at position id − ids[0] or
// before it (see index).
type Table struct {
	schema *Schema
	width  int
	ids    []int64
	vals   []float64
	nextID int64
}

// NewTable returns an empty table with the given schema.
func NewTable(schema *Schema) *Table {
	return &Table{schema: schema, width: schema.Width(), nextID: 1}
}

// NewTableFromRows reconstructs a table from explicit rows and ID
// counter — the deserialization entry point for wire formats that must
// reproduce a table state exactly, including tuple identities and the
// IDs future inserts will allocate (replay correctness depends on both).
// Rows keep their order, which must be strictly ascending by ID (the
// order every table lists its rows in); values are copied.
func NewTableFromRows(schema *Schema, rows []Tuple, nextID int64) (*Table, error) {
	tb := NewTable(schema)
	tb.ids = make([]int64, 0, len(rows))
	tb.vals = make([]float64, 0, len(rows)*tb.width)
	for i, t := range rows {
		if len(t.Values) != tb.width {
			return nil, fmt.Errorf("relation: row %d arity %d != schema width %d",
				t.ID, len(t.Values), tb.width)
		}
		if i > 0 && t.ID <= rows[i-1].ID {
			return nil, fmt.Errorf("relation: tuple id %d follows %d: ids must be strictly ascending",
				t.ID, rows[i-1].ID)
		}
		tb.ids = append(tb.ids, t.ID)
		tb.vals = append(tb.vals, t.Values...)
	}
	if n := len(rows); n > 0 {
		tb.nextID = rows[n-1].ID + 1
	}
	tb.nextID = max(tb.nextID, nextID)
	return tb, nil
}

// Schema returns the table's schema.
func (tb *Table) Schema() *Schema { return tb.schema }

// NextID returns the ID the next insert will be assigned. Serializers
// carry it so a reconstructed table allocates identical IDs on replay.
func (tb *Table) NextID() int64 { return tb.nextID }

// Len returns the number of live tuples.
func (tb *Table) Len() int { return len(tb.ids) }

// row returns a view of the values at position i, capped so that an
// append through it cannot reach the next row.
func (tb *Table) row(i int) []float64 {
	return tb.vals[i*tb.width : (i+1)*tb.width : (i+1)*tb.width]
}

// index returns the position of the live tuple with the given ID. IDs
// ascend strictly, so ids[i] ≥ ids[0] + i: the tuple can sit no later
// than position id − ids[0], and is there unless rows before it were
// deleted, in which case it is found by binary search below that guess.
func (tb *Table) index(id int64) (int, bool) {
	n := len(tb.ids)
	if n == 0 || id < tb.ids[0] {
		return 0, false
	}
	g := n - 1
	if d := uint64(id) - uint64(tb.ids[0]); d < uint64(n) {
		g = int(d)
	}
	switch {
	case tb.ids[g] == id:
		return g, true
	case tb.ids[g] < id:
		return 0, false
	}
	return slices.BinarySearch(tb.ids[:g], id)
}

// Insert appends a tuple with a fresh ID and returns a view of it.
func (tb *Table) Insert(values []float64) (Tuple, error) {
	if len(values) != tb.width {
		return Tuple{}, fmt.Errorf("relation: insert arity %d != schema width %d",
			len(values), tb.width)
	}
	id := tb.nextID
	tb.nextID++
	tb.ids = append(tb.ids, id)
	tb.vals = append(tb.vals, values...)
	return Tuple{ID: id, Values: tb.row(len(tb.ids) - 1)}, nil
}

// SkipID takes the ID the next Insert would assign, adding no row: a
// table holding a slice of another's rows follows the other's IDs.
func (tb *Table) SkipID() { tb.nextID++ }

// Grow makes room for n more rows, so that the next n Inserts neither
// reallocate nor copy the table's storage. A loader that knows how many
// rows it will insert calls it once: left to Insert's appends, a table
// of r rows allocates about twice r rows' storage over its regrowths to
// keep r. Grow never shrinks the table and ignores n ≤ 0.
func (tb *Table) Grow(n int) {
	if n > 0 {
		tb.ids = slices.Grow(tb.ids, n)
		tb.vals = slices.Grow(tb.vals, n*tb.width)
	}
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
	i, ok := tb.index(id)
	if !ok {
		return false
	}
	tb.ids = slices.Delete(tb.ids, i, i+1)
	tb.vals = slices.Delete(tb.vals, i*tb.width, (i+1)*tb.width)
	return true
}

// DeleteBatch removes every live tuple whose ID is listed (unknown and
// repeated IDs are ignored) and returns how many went. Survivors keep
// their order. It is one compaction pass from the first doomed row,
// where a Delete per ID would shift the tail once per doomed row.
func (tb *Table) DeleteBatch(ids []int64) int {
	var doomed []int
	for _, id := range ids {
		if i, ok := tb.index(id); ok {
			doomed = append(doomed, i)
		}
	}
	if len(doomed) == 0 {
		return 0
	}
	slices.Sort(doomed)
	doomed = slices.Compact(doomed)
	w, k := doomed[0], 0
	for r := w; r < len(tb.ids); r++ {
		if k < len(doomed) && doomed[k] == r {
			k++
			continue
		}
		tb.ids[w] = tb.ids[r]
		copy(tb.row(w), tb.row(r))
		w++
	}
	tb.ids = tb.ids[:w]
	tb.vals = tb.vals[:w*tb.width]
	return len(doomed)
}

// Get returns a copy of the tuple with the given ID.
func (tb *Table) Get(id int64) (Tuple, bool) {
	i, ok := tb.index(id)
	if !ok {
		return Tuple{}, false
	}
	return tb.At(i), true
}

// ReadValues copies the values of the tuple with the given ID into dst
// (which must have the schema's width), reporting whether the tuple is
// live; dst is untouched when it is not. It is Get without the allocation.
func (tb *Table) ReadValues(id int64, dst []float64) bool {
	i, ok := tb.index(id)
	if ok {
		copy(dst, tb.row(i))
	}
	return ok
}

// Pos returns the position of the live tuple with the given ID in the
// table's order, the i that At(i) reads, reporting whether it is live.
func (tb *Table) Pos(id int64) (int, bool) { return tb.index(id) }

// Set overwrites the values of the tuple with the given ID.
func (tb *Table) Set(id int64, values []float64) error {
	i, ok := tb.index(id)
	if !ok {
		return fmt.Errorf("relation: no tuple with id %d", id)
	}
	if len(values) != tb.width {
		return fmt.Errorf("relation: set arity %d != schema width %d",
			len(values), tb.width)
	}
	copy(tb.row(i), values)
	return nil
}

// Rows calls f on a view of each live tuple in order. f must not mutate
// the values or the table; a view it keeps is valid as long as the
// table's storage (see Tuple).
func (tb *Table) Rows(f func(Tuple)) {
	for i, id := range tb.ids {
		f(Tuple{ID: id, Values: tb.row(i)})
	}
}

// Update calls f on a view of each live tuple in order; f may write the
// values in place, and must not change the table otherwise. It is the
// primitive beneath UPDATE execution. The tuple is passed by value, so
// the call allocates nothing per row.
func (tb *Table) Update(f func(Tuple)) { tb.Rows(f) }

// UpdateRow calls f on a view of the live tuple with the given ID,
// reporting whether there is one; f may write the values in place. It is
// Update for a caller that already knows which rows a statement can
// match.
func (tb *Table) UpdateRow(id int64, f func(Tuple)) bool {
	i, ok := tb.index(id)
	if ok {
		f(Tuple{ID: id, Values: tb.row(i)})
	}
	return ok
}

// At returns a copy of the tuple at position i in insertion order.
func (tb *Table) At(i int) Tuple {
	return Tuple{ID: tb.ids[i], Values: slices.Clone(tb.row(i))}
}

// IDs returns the IDs of live tuples in insertion order.
func (tb *Table) IDs() []int64 { return slices.Clone(tb.ids) }

// Clone returns a deep copy sharing nothing with the receiver. The ID
// counter is preserved so replays from a cloned state allocate identical
// IDs.
func (tb *Table) Clone() *Table { return tb.CloneWithRoom(0) }

// CloneWithRoom is Clone with capacity for inserts more rows before
// the copy's storage has to grow: a replay sizes it for its log's
// INSERTs in one allocation per slice.
func (tb *Table) CloneWithRoom(inserts int) *Table {
	n := len(tb.ids) + inserts
	c := &Table{schema: tb.schema, width: tb.width, nextID: tb.nextID,
		ids: make([]int64, len(tb.ids), n), vals: make([]float64, len(tb.vals), n*tb.width)}
	copy(c.ids, tb.ids)
	copy(c.vals, tb.vals)
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
// Both tables list their rows by ascending ID, so this is one merge.
func DiffTables(before, after *Table, eps float64) []Diff {
	var out []Diff
	i, j := 0, 0
	for i < before.Len() || j < after.Len() {
		switch {
		case j == after.Len() || (i < before.Len() && before.ids[i] < after.ids[j]):
			b := before.At(i)
			out = append(out, Diff{ID: b.ID, Before: &b})
			i++
		case i == before.Len() || after.ids[j] < before.ids[i]:
			a := after.At(j)
			out = append(out, Diff{ID: a.ID, After: &a})
			j++
		default:
			b := Tuple{ID: before.ids[i], Values: before.row(i)}
			if a := (Tuple{ID: after.ids[j], Values: after.row(j)}); !b.Equal(a, eps) {
				bc, ac := before.At(i), after.At(j)
				out = append(out, Diff{ID: b.ID, Before: &bc, After: &ac})
			}
			i++
			j++
		}
	}
	return out
}
