package relation

import (
	"fmt"
	"slices"
	"sort"
	"testing"
)

// refTable is the table this package had before storage went flat: one
// Values slice per row, a row slice in insertion order and a map from
// tuple ID to row index. FuzzTableOps holds Table to it.
type refTable struct {
	schema *Schema
	rows   []Tuple
	byID   map[int64]int // tuple ID -> index in rows
	nextID int64
}

func newRefTable(schema *Schema) *refTable {
	return &refTable{schema: schema, byID: make(map[int64]int), nextID: 1}
}

func newRefTableFromRows(schema *Schema, rows []Tuple, nextID int64) (*refTable, error) {
	tb := newRefTable(schema)
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

func (tb *refTable) Insert(values []float64) (Tuple, error) {
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

func (tb *refTable) Delete(id int64) bool {
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

func (tb *refTable) DeleteBatch(ids []int64) int {
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

func (tb *refTable) Get(id int64) (Tuple, bool) {
	i, ok := tb.byID[id]
	if !ok {
		return Tuple{}, false
	}
	return tb.rows[i].Clone(), true
}

func (tb *refTable) Set(id int64, values []float64) error {
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

func (tb *refTable) Update(f func(t *Tuple)) {
	for i := range tb.rows {
		f(&tb.rows[i])
	}
}

func (tb *refTable) UpdateRow(id int64, f func(t *Tuple)) bool {
	i, ok := tb.byID[id]
	if ok {
		f(&tb.rows[i])
	}
	return ok
}

func (tb *refTable) Clone() *refTable {
	c := &refTable{schema: tb.schema, rows: make([]Tuple, len(tb.rows)),
		byID: make(map[int64]int, len(tb.byID)), nextID: tb.nextID}
	for i, t := range tb.rows {
		c.rows[i] = t.Clone()
		c.byID[t.ID] = i
	}
	return c
}

func refDiffTables(before, after *refTable, eps float64) []Diff {
	var out []Diff
	for _, t := range before.rows {
		if i, ok := after.byID[t.ID]; ok {
			if a := after.rows[i]; !t.Equal(a, eps) {
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

// maxPairs bounds how many tables one FuzzTableOps input keeps, which
// bounds the checking each operation costs.
const maxPairs = 6

// tablePair is one table and its reference, plus the states both were
// in when the pair began, which every check diffs against.
type tablePair struct {
	flat, snap *Table
	ref, rsnap *refTable
}

func newPair(flat *Table, ref *refTable) *tablePair {
	return &tablePair{flat: flat, snap: flat.Clone(), ref: ref, rsnap: ref.Clone()}
}

// opBytes hands out the fuzz input a byte at a time, zeros once it is
// spent.
type opBytes []byte

func (b *opBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// id picks an ID around the live range: live ones mostly, and IDs below
// the first and at or past the counter, which name no tuple.
func (b *opBytes) id(p *tablePair) int64 {
	v := b.next()
	if len(p.ref.rows) > 0 && v%4 != 0 {
		return p.ref.rows[v%len(p.ref.rows)].ID
	}
	lo := int64(-2)
	if len(p.ref.rows) > 0 {
		lo = p.ref.rows[0].ID - 2
	}
	return lo + int64(v)%(p.ref.nextID-lo+3)
}

// values reads a row of small values, so rows collide and Equal sees
// both answers.
func (b *opBytes) values(width int) []float64 {
	vals := make([]float64, width)
	for i := range vals {
		vals[i] = float64(b.next()%7) - 2
	}
	return vals
}

// FuzzTableOps decodes its input into a sequence of table operations,
// applies each to a Table and to refTable, the map-and-row-slice table
// it replaced, and after every operation requires the two to agree on
// everything a caller can observe: Len, NextID, IDs, Get, ReadValues, At,
// the order Rows visits, and DiffTables against the state the pair began
// in. Grow is applied to the Table alone, since it changes only where the
// rows live, never what a caller reads; it rides on a byte the extra
// Insert already reads, so every saved input decodes to the operations
// it was saved for. Clone starts a new pair from the current one; later
// operations pick the pair they mutate, so originals and copies both
// move, and every pair is checked every time.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{2})
	f.Add([]byte{3, 0, 1, 2, 0, 3, 4, 0, 5, 6, 1, 7, 2, 3, 1, 1, 9, 1, 2})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 6, 1, 2, 3, 3, 9, 4})
	f.Add([]byte{2, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 6, 0, 4, 1, 0, 1, 3, 5, 2, 7, 1, 8, 2, 9, 0})
	f.Add([]byte{3, 0, 1, 2, 3, 0, 4, 5, 6, 0, 7, 8, 9, 10, 1, 8, 0, 3, 10, 0, 4, 11, 1, 12, 2})
	// Grow before inserts, on a clone, after a delete and by a negative
	// count: rows written into grown storage, views handed out before it
	// moved.
	f.Add([]byte{2, 0, 1, 2, 3, 10, 1, 2, 3, 25, 0, 4, 5, 6, 7, 11, 0, 1, 2, 33,
		2, 1, 10, 1, 1, 1, 1, 8, 0, 10, 6, 6, 6, 13, 0, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := opBytes(data)
		width := in.next()%3 + 1
		attrs := []string{"a", "b", "c"}[:width]
		s := MustSchema("t", attrs, "")
		pairs := []*tablePair{newPair(NewTable(s), newRefTable(s))}
		cur := pairs[0]
		for step := 0; len(in) > 0 && step < 200; step++ {
			op := in.next() % 12
			switch op {
			case 0, 1: // Insert (twice as likely: tables need rows)
				vals := in.values(width)
				got, err := cur.flat.Insert(vals)
				want, rerr := cur.ref.Insert(vals)
				if err != nil || rerr != nil || got.ID != want.ID || !slices.Equal(got.Values, want.Values) {
					t.Fatalf("step %d: Insert(%v) = %v, %v; reference %v, %v", step, vals, got, err, want, rerr)
				}
			case 2: // Delete
				id := in.id(cur)
				if got, want := cur.flat.Delete(id), cur.ref.Delete(id); got != want {
					t.Fatalf("step %d: Delete(%d) = %v, reference %v", step, id, got, want)
				}
			case 3: // DeleteBatch, with strangers and repeats
				ids := make([]int64, in.next()%6)
				for i := range ids {
					ids[i] = in.id(cur)
				}
				if got, want := cur.flat.DeleteBatch(ids), cur.ref.DeleteBatch(ids); got != want {
					t.Fatalf("step %d: DeleteBatch(%v) = %d, reference %d", step, ids, got, want)
				}
			case 4: // Set, sometimes at the wrong arity
				id, vals := in.id(cur), in.values(width)
				if in.next()%5 == 0 {
					vals = vals[:width-1]
				}
				err, rerr := cur.flat.Set(id, vals), cur.ref.Set(id, vals)
				if (err == nil) != (rerr == nil) {
					t.Fatalf("step %d: Set(%d, %v) = %v, reference %v", step, id, vals, err, rerr)
				}
			case 5: // Update: bump a column where another holds a value
				a, k, v := in.next()%width, in.next()%width, float64(in.next()%7-2)
				cur.flat.Update(func(tp Tuple) {
					if tp.Values[k] == v {
						tp.Values[a]++
					}
				})
				cur.ref.Update(func(tp *Tuple) {
					if tp.Values[k] == v {
						tp.Values[a]++
					}
				})
			case 6: // UpdateRow
				id, a, d := in.id(cur), in.next()%width, float64(in.next()%5+1)
				var seen, rseen int64 = -1, -1
				got := cur.flat.UpdateRow(id, func(tp Tuple) { seen = tp.ID; tp.Values[a] += d })
				want := cur.ref.UpdateRow(id, func(tp *Tuple) { rseen = tp.ID; tp.Values[a] += d })
				if got != want || seen != rseen {
					t.Fatalf("step %d: UpdateRow(%d) = %v on %d, reference %v on %d", step, id, got, seen, want, rseen)
				}
			case 7: // Clone: the copy becomes a pair of its own
				if len(pairs) < maxPairs {
					cur = newPair(cur.flat.Clone(), cur.ref.Clone())
					pairs = append(pairs, cur)
				}
			case 8: // switch to another pair
				cur = pairs[in.next()%len(pairs)]
			case 9: // NewTableFromRows: ascending, out of order or duplicated
				rows := make([]Tuple, len(cur.ref.rows))
				for i, r := range cur.ref.rows {
					rows[i] = r.Clone()
				}
				mode, nextID := in.next()%3, cur.ref.nextID+int64(in.next()%5)-2
				if len(rows) >= 2 && mode == 1 {
					i := in.next() % (len(rows) - 1)
					rows[i], rows[i+1] = rows[i+1], rows[i]
				} else if len(rows) >= 1 && mode == 2 {
					i := in.next() % len(rows)
					rows = slices.Insert(rows, i, rows[i].Clone())
				} else {
					mode = 0
				}
				flat, err := NewTableFromRows(s, rows, nextID)
				ref, rerr := newRefTableFromRows(s, rows, nextID)
				switch {
				case mode == 0 && (err != nil || rerr != nil):
					t.Fatalf("step %d: NewTableFromRows refused ascending rows: %v, reference %v", step, err, rerr)
				case mode == 0:
					if len(rows) > 0 {
						rows[0].Values[0] = 99 // the table holds its own copy
					}
					if len(pairs) < maxPairs {
						cur = newPair(flat, ref)
						pairs = append(pairs, cur)
					} else {
						checkPair(t, fmt.Sprintf("step %d: the table from rows", step), newPair(flat, ref))
					}
				case err == nil:
					t.Fatalf("step %d: NewTableFromRows accepted ids %v", step, idsOf(rows))
				case mode == 2 && rerr == nil:
					t.Fatalf("step %d: reference accepted duplicate ids %v", step, idsOf(rows))
				}
			default: // another Insert, at the wrong arity or into grown storage now and then
				vals := in.values(width)
				switch k := in.next(); k % 4 {
				case 0:
					vals = append(vals, 1)
				case 1: // Grow, by a negative count now and then: the reference has nothing to match
					cur.flat.Grow(k/4%9 - 2)
				}
				got, err := cur.flat.Insert(vals)
				want, rerr := cur.ref.Insert(vals)
				if (err == nil) != (rerr == nil) || got.ID != want.ID {
					t.Fatalf("step %d: Insert(%v) = %v, %v; reference %v, %v", step, vals, got, err, want, rerr)
				}
			}
			for pi, p := range pairs {
				checkPair(t, fmt.Sprintf("step %d (op %d), pair %d", step, op, pi), p)
			}
		}
	})
}

func idsOf(rows []Tuple) []int64 {
	ids := make([]int64, len(rows))
	for i, r := range rows {
		ids[i] = r.ID
	}
	return ids
}

// checkPair fails the test unless p's table and its reference agree on
// everything a caller can read.
func checkPair(t *testing.T, where string, p *tablePair) {
	t.Helper()
	flat, ref := p.flat, p.ref
	if flat.Len() != len(ref.rows) || flat.NextID() != ref.nextID {
		t.Fatalf("%s: %d rows, next ID %d; reference %d rows, next ID %d",
			where, flat.Len(), flat.NextID(), len(ref.rows), ref.nextID)
	}
	if got, want := flat.IDs(), idsOf(ref.rows); !slices.Equal(got, want) {
		t.Fatalf("%s: IDs %v, reference %v", where, got, want)
	}
	var visited []Tuple
	flat.Rows(func(tp Tuple) { visited = append(visited, tp.Clone()) })
	for i, want := range ref.rows {
		if at := flat.At(i); at.ID != want.ID || !slices.Equal(at.Values, want.Values) {
			t.Fatalf("%s: At(%d) = %v, reference %v", where, i, at, want)
		}
		if v := visited[i]; v.ID != want.ID || !slices.Equal(v.Values, want.Values) {
			t.Fatalf("%s: Rows visits %v at %d, reference %v", where, v, i, want)
		}
	}
	lo, hi := int64(-3), ref.nextID+3
	if len(ref.rows) > 0 {
		lo = ref.rows[0].ID - 3
	}
	dst := make([]float64, flat.Schema().Width())
	for id := lo; id <= hi; id++ {
		got, ok := flat.Get(id)
		want, rok := ref.Get(id)
		if ok != rok || got.ID != want.ID || !slices.Equal(got.Values, want.Values) {
			t.Fatalf("%s: Get(%d) = %v, %v; reference %v, %v", where, id, got, ok, want, rok)
		}
		clear(dst)
		if ok := flat.ReadValues(id, dst); ok != rok || (ok && !slices.Equal(dst, want.Values)) {
			t.Fatalf("%s: ReadValues(%d) = %v, %v; reference %v, %v", where, id, dst, ok, want.Values, rok)
		}
	}
	got, want := DiffTables(p.snap, flat, 0), refDiffTables(p.rsnap, ref, 0)
	if fmt.Sprint(diffRows(got)) != fmt.Sprint(diffRows(want)) {
		t.Fatalf("%s: DiffTables %v, reference %v", where, diffRows(got), diffRows(want))
	}
}

// diffRows spells out a diff list for comparison and messages.
func diffRows(ds []Diff) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = fmt.Sprintf("%d:", d.ID)
		for _, t := range []*Tuple{d.Before, d.After} {
			if t == nil {
				out[i] += " -"
			} else {
				out[i] += fmt.Sprintf(" %d%v", t.ID, t.Values)
			}
		}
	}
	return out
}

// benchRows is the row count of the table benchmarks, about a TPC-C
// instance's D0.
const benchRows = 5000

var benchSchema = MustSchema("t", []string{"a", "b", "c", "d", "e", "f"}, "")

// benchValues fills vals with row i.
func benchValues(vals []float64, i int) []float64 {
	vals[0], vals[1], vals[5] = float64(i), float64(i%7), float64(i%100)
	return vals
}

// BenchmarkTableInsert fills an empty table with benchRows rows, and for
// reference the map-and-row-slice table it replaced.
func BenchmarkTableInsert(b *testing.B) {
	vals := []float64{0, 0, 1, 2, 3, 0}
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			tb := NewTable(benchSchema)
			for i := range benchRows {
				if _, err := tb.Insert(benchValues(vals, i)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("ref", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			tb := newRefTable(benchSchema)
			for i := range benchRows {
				if _, err := tb.Insert(benchValues(vals, i)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkTableClone copies a table of benchRows rows, and for
// reference the map-and-row-slice table it replaced.
func BenchmarkTableClone(b *testing.B) {
	tb, ref := NewTable(benchSchema), newRefTable(benchSchema)
	vals := []float64{0, 0, 1, 2, 3, 0}
	for i := range benchRows {
		tb.MustInsert(benchValues(vals, i)...)
		if _, err := ref.Insert(benchValues(vals, i)); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			tb.Clone()
		}
	})
	b.Run("ref", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			ref.Clone()
		}
	})
}
