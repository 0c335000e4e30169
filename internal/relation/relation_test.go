package relation

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema("t", nil, ""); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := NewSchema("t", []string{"a", "a"}, ""); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if _, err := NewSchema("t", []string{"a", ""}, ""); err == nil {
		t.Error("empty attribute name accepted")
	}
	if _, err := NewSchema("t", []string{"a"}, "nope"); err == nil {
		t.Error("unknown key accepted")
	}
	s, err := NewSchema("taxes", []string{"id", "income", "owed"}, "id")
	if err != nil {
		t.Fatal(err)
	}
	if s.Width() != 3 || s.Key() != 0 || s.Name() != "taxes" {
		t.Errorf("schema basics wrong: %v width=%d key=%d", s, s.Width(), s.Key())
	}
	if i, ok := s.Index("owed"); !ok || i != 2 {
		t.Errorf("Index(owed) = %d,%v", i, ok)
	}
	if _, ok := s.Index("missing"); ok {
		t.Error("Index(missing) found")
	}
	if got := s.String(); got != "taxes(id, income, owed)" {
		t.Errorf("String() = %q", got)
	}
	if got := s.Attrs(); len(got) != 3 || got[1] != "income" {
		t.Errorf("Attrs() = %v", got)
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSchema did not panic on invalid schema")
		}
	}()
	MustSchema("t", nil, "")
}

func newTestTable(t *testing.T) *Table {
	t.Helper()
	return NewTable(MustSchema("t", []string{"a", "b"}, "a"))
}

func TestInsertDeleteGet(t *testing.T) {
	tb := newTestTable(t)
	t1 := tb.MustInsert(1, 10)
	t2 := tb.MustInsert(2, 20)
	t3 := tb.MustInsert(3, 30)
	if tb.Len() != 3 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if t1.ID == t2.ID || t2.ID == t3.ID {
		t.Fatal("IDs not unique")
	}
	if !tb.Delete(t2.ID) {
		t.Fatal("Delete failed")
	}
	if tb.Delete(t2.ID) {
		t.Fatal("double Delete succeeded")
	}
	if tb.Len() != 2 {
		t.Fatalf("Len after delete = %d", tb.Len())
	}
	if _, ok := tb.Get(t2.ID); ok {
		t.Fatal("deleted tuple still visible")
	}
	got, ok := tb.Get(t3.ID)
	if !ok || got.Values[1] != 30 {
		t.Fatalf("Get(t3) = %v, %v", got, ok)
	}
	// Order preserved after deletion.
	var ids []int64
	tb.Rows(func(tp Tuple) { ids = append(ids, tp.ID) })
	if len(ids) != 2 || ids[0] != t1.ID || ids[1] != t3.ID {
		t.Fatalf("row order after delete = %v", ids)
	}
}

func TestInsertArity(t *testing.T) {
	tb := newTestTable(t)
	if _, err := tb.Insert([]float64{1}); err == nil {
		t.Error("short insert accepted")
	}
	if err := tb.Set(999, []float64{1, 2}); err == nil {
		t.Error("Set on missing id accepted")
	}
	id := tb.MustInsert(1, 2).ID
	if err := tb.Set(id, []float64{1}); err == nil {
		t.Error("short Set accepted")
	}
	if err := tb.Set(id, []float64{5, 6}); err != nil {
		t.Errorf("Set failed: %v", err)
	}
	got, _ := tb.Get(id)
	if got.Values[0] != 5 || got.Values[1] != 6 {
		t.Errorf("Set not applied: %v", got.Values)
	}
}

func TestCloneIndependence(t *testing.T) {
	tb := newTestTable(t)
	id := tb.MustInsert(1, 10).ID
	cl := tb.Clone()
	if err := cl.Set(id, []float64{1, 99}); err != nil {
		t.Fatal(err)
	}
	orig, _ := tb.Get(id)
	if orig.Values[1] != 10 {
		t.Error("clone mutation leaked into original")
	}
	// ID sequences stay aligned after cloning.
	a := tb.MustInsert(2, 2)
	b := cl.MustInsert(2, 2)
	if a.ID != b.ID {
		t.Errorf("clone ID sequence diverged: %d vs %d", a.ID, b.ID)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	tb := newTestTable(t)
	id := tb.MustInsert(1, 10).ID
	got, _ := tb.Get(id)
	got.Values[1] = 777
	again, _ := tb.Get(id)
	if again.Values[1] != 10 {
		t.Error("Get returned aliased storage")
	}
}

func TestDiffTables(t *testing.T) {
	tb := newTestTable(t)
	a := tb.MustInsert(1, 10)
	b := tb.MustInsert(2, 20)
	c := tb.MustInsert(3, 30)
	after := tb.Clone()
	// change b, delete c, insert d
	if err := after.Set(b.ID, []float64{2, 99}); err != nil {
		t.Fatal(err)
	}
	after.Delete(c.ID)
	d := after.MustInsert(4, 40)

	diffs := DiffTables(tb, after, 1e-9)
	if len(diffs) != 3 {
		t.Fatalf("got %d diffs: %+v", len(diffs), diffs)
	}
	byID := map[int64]Diff{}
	for _, df := range diffs {
		byID[df.ID] = df
	}
	if df := byID[b.ID]; df.Before == nil || df.After == nil || df.After.Values[1] != 99 {
		t.Errorf("changed diff wrong: %+v", df)
	}
	if df := byID[c.ID]; df.Before == nil || df.After != nil {
		t.Errorf("deleted diff wrong: %+v", df)
	}
	if df := byID[d.ID]; df.Before != nil || df.After == nil {
		t.Errorf("inserted diff wrong: %+v", df)
	}
	if _, ok := byID[a.ID]; ok {
		t.Error("unchanged tuple reported")
	}
	// diffs sorted by ID
	for i := 1; i < len(diffs); i++ {
		if diffs[i-1].ID >= diffs[i].ID {
			t.Error("diffs not sorted by ID")
		}
	}
}

func TestDiffIdenticalEmpty(t *testing.T) {
	tb := newTestTable(t)
	tb.MustInsert(1, 1)
	if d := DiffTables(tb, tb.Clone(), 0); len(d) != 0 {
		t.Errorf("identical tables diff = %v", d)
	}
}

func TestTupleEqualEps(t *testing.T) {
	a := Tuple{Values: []float64{1, 2}}
	b := Tuple{Values: []float64{1, 2.0000001}}
	if !a.Equal(b, 1e-3) {
		t.Error("eps equality failed")
	}
	if a.Equal(b, 1e-9) {
		t.Error("eps equality too lax")
	}
	if a.Equal(Tuple{Values: []float64{1}}, 1) {
		t.Error("arity mismatch equal")
	}
}

// Property: Clone then DiffTables is empty; mutations are always reported.
func TestQuickCloneDiff(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable(MustSchema("t", []string{"a", "b", "c"}, ""))
		rows := int(n%20) + 1
		for i := 0; i < rows; i++ {
			tb.MustInsert(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
		}
		cl := tb.Clone()
		if len(DiffTables(tb, cl, 0)) != 0 {
			return false
		}
		// mutate a random row in the clone
		ids := cl.IDs()
		id := ids[rng.Intn(len(ids))]
		tp, _ := cl.Get(id)
		tp.Values[rng.Intn(3)] += 1 + rng.Float64()
		if err := cl.Set(id, tp.Values); err != nil {
			return false
		}
		diffs := DiffTables(tb, cl, 1e-9)
		return len(diffs) == 1 && diffs[0].ID == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDeleteBatchMatchesDeleteLoop: removing half of 10 000 rows in one
// batch leaves what a Delete per row leaves — the same rows in the same
// order, the same ID counter, every survivor still found by its ID — and
// deletes later and earlier than the batch keep working.
func TestDeleteBatchMatchesDeleteLoop(t *testing.T) {
	s := MustSchema("t", []string{"a", "b"}, "")
	batch := NewTable(s)
	for i := 0; i < 10000; i++ {
		batch.MustInsert(float64(i), float64(i%7))
	}
	loop := batch.Clone()
	rng := rand.New(rand.NewSource(5))
	var doomed []int64
	for _, id := range batch.IDs() {
		if rng.Intn(2) == 0 {
			doomed = append(doomed, id)
		}
	}
	rng.Shuffle(len(doomed), func(i, j int) { doomed[i], doomed[j] = doomed[j], doomed[i] })
	withNoise := append([]int64{doomed[0], -3, 20001}, doomed...) // a repeat and two strangers
	if n := batch.DeleteBatch(withNoise); n != len(doomed) {
		t.Fatalf("DeleteBatch removed %d rows, want %d", n, len(doomed))
	}
	for _, id := range doomed {
		loop.Delete(id)
	}
	same := func() {
		t.Helper()
		if batch.Len() != loop.Len() || batch.NextID() != loop.NextID() {
			t.Fatalf("batch: %d rows, next ID %d; loop: %d rows, next ID %d",
				batch.Len(), batch.NextID(), loop.Len(), loop.NextID())
		}
		for i := 0; i < loop.Len(); i++ {
			b, l := batch.At(i), loop.At(i)
			if b.ID != l.ID || !b.Equal(l, 0) {
				t.Fatalf("row %d: batch has %v, loop has %v", i, b, l)
			}
			if got, ok := batch.Get(b.ID); !ok || !got.Equal(b, 0) {
				t.Fatalf("tuple %d not found by ID after the batch", b.ID)
			}
		}
		if d := DiffTables(loop, batch, 0); len(d) != 0 {
			t.Fatalf("%d differences between loop and batch", len(d))
		}
	}
	same()
	if batch.DeleteBatch(nil) != 0 || batch.DeleteBatch(doomed) != 0 {
		t.Error("an empty or already-deleted batch removed rows")
	}
	last := batch.At(batch.Len() - 1).ID
	batch.MustInsert(1, 1)
	loop.MustInsert(1, 1)
	for _, id := range []int64{last, batch.At(0).ID} {
		if batch.DeleteBatch([]int64{id}) != 1 || !loop.Delete(id) {
			t.Fatalf("tuple %d not deleted", id)
		}
	}
	same()
}

func TestUpdateRow(t *testing.T) {
	tb := newTestTable(t)
	a := tb.MustInsert(1, 2)
	b := tb.MustInsert(4, 5)
	if !tb.UpdateRow(b.ID, func(tp Tuple) { tp.Values[0] = 40 }) {
		t.Fatal("live tuple not found")
	}
	if got, _ := tb.Get(b.ID); got.Values[0] != 40 {
		t.Errorf("tuple after UpdateRow = %v", got.Values)
	}
	if got, _ := tb.Get(a.ID); got.Values[0] != 1 {
		t.Errorf("UpdateRow touched another tuple: %v", got.Values)
	}
	tb.Delete(b.ID)
	if tb.UpdateRow(b.ID, func(Tuple) { t.Error("f called for a deleted tuple") }) {
		t.Error("deleted tuple reported live")
	}
}
