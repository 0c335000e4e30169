package query

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

// genExpr builds a random normalized LinExpr.
func genExpr(rng *rand.Rand, width int) LinExpr {
	n := rng.Intn(4)
	terms := make([]Term, n)
	for i := range terms {
		terms[i] = Term{Attr: rng.Intn(width), Coef: float64(rng.Intn(9) - 4)}
	}
	return NewLinExpr(float64(rng.Intn(21)-10), terms...)
}

func genVals(rng *rand.Rand, width int) []float64 {
	vs := make([]float64, width)
	for i := range vs {
		vs[i] = float64(rng.Intn(41) - 20)
	}
	return vs
}

// Property: LinExpr.Add is a homomorphism w.r.t. evaluation, and Scale
// distributes.
func TestQuickLinExprAlgebra(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const width = 5
		a, b := genExpr(rng, width), genExpr(rng, width)
		k := float64(rng.Intn(9) - 4)
		vals := genVals(rng, width)

		sum := a.Add(b)
		if math.Abs(sum.Eval(vals)-(a.Eval(vals)+b.Eval(vals))) > 1e-9 {
			return false
		}
		sc := a.Scale(k)
		if math.Abs(sc.Eval(vals)-k*a.Eval(vals)) > 1e-9 {
			return false
		}
		// (a+b)*k == a*k + b*k
		lhs := sum.Scale(k)
		rhs := a.Scale(k).Add(b.Scale(k))
		if !lhs.Equal(rhs, 1e-9) {
			return false
		}
		// normalization invariants: sorted attrs, no zero coefs
		for i, tm := range sum.Terms {
			if tm.Coef == 0 {
				return false
			}
			if i > 0 && sum.Terms[i-1].Attr >= tm.Attr {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a.Add(a.Scale(-1)) is the zero expression.
func TestQuickLinExprInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := genExpr(rng, 4)
		z := a.Add(a.Scale(-1))
		return z.IsConst() && z.Const == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Clone produces behaviourally identical, aliasing-free
// queries.
func TestQuickCloneIndependence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		width := 4
		q := NewUpdate(
			[]SetClause{{Attr: rng.Intn(width), Expr: genExpr(rng, width)}},
			NewAnd(
				NewPred(genNonConstExpr(rng, width), GE, float64(rng.Intn(20))),
				NewPred(genNonConstExpr(rng, width), LE, float64(rng.Intn(20)+20))))
		c := q.Clone().(*Update)
		// Mutating the clone's params must not affect the original.
		origParams := q.Params()
		p := c.Params()
		for i := range p {
			p[i] += 100
		}
		if err := c.SetParams(p); err != nil {
			return false
		}
		after := q.Params()
		for i := range origParams {
			if origParams[i] != after[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func genNonConstExpr(rng *rand.Rand, width int) LinExpr {
	for {
		e := genExpr(rng, width)
		if !e.IsConst() {
			return e
		}
	}
}

// Property: applying a query twice from the same state gives the same
// result (execution is deterministic and side-effect free on inputs).
func TestQuickApplyDeterministic(t *testing.T) {
	sch := relation.MustSchema("T", []string{"a", "b", "c"}, "")
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d0 := relation.NewTable(sch)
		for i := 0; i < rng.Intn(10)+2; i++ {
			d0.MustInsert(genVals(rng, 3)...)
		}
		var q Query
		switch rng.Intn(3) {
		case 0:
			q = NewUpdate([]SetClause{{Attr: rng.Intn(3), Expr: genExpr(rng, 3)}},
				NewPred(genNonConstExpr(rng, 3), GE, float64(rng.Intn(10))))
		case 1:
			q = NewInsert(genVals(rng, 3)...)
		default:
			q = NewDelete(NewPred(genNonConstExpr(rng, 3), LT, float64(rng.Intn(10))))
		}
		r1, err1 := Replay([]Query{q}, d0)
		r2, err2 := Replay([]Query{q}, d0)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return len(relation.DiffTables(r1, r2, 0)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Distance is a metric-like function on parameter vectors:
// non-negative, zero iff equal params, symmetric, triangle inequality.
func TestQuickDistanceMetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := NewUpdate(
			[]SetClause{{Attr: 0, Expr: ConstExpr(float64(rng.Intn(50)))}},
			AttrPred(1, GE, float64(rng.Intn(50))))
		mk := func() []Query {
			q := base.Clone()
			p := q.Params()
			for i := range p {
				p[i] = float64(rng.Intn(100))
			}
			if err := q.SetParams(p); err != nil {
				panic(err)
			}
			return []Query{q}
		}
		a, b, c := mk(), mk(), mk()
		dab, dba := Distance(a, b), Distance(b, a)
		if dab < 0 || math.Abs(dab-dba) > 1e-12 {
			return false
		}
		if Distance(a, a) != 0 {
			return false
		}
		if Distance(a, c) > dab+Distance(b, c)+1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the bitset AttrSet behaves like a map[int]bool set, at widths
// on and around the word boundaries and with operands of different
// widths (a narrower or wider right-hand side, trailing zero words).
func TestQuickAttrSetMatchesMapModel(t *testing.T) {
	widths := []int{1, 63, 64, 65, 130}
	draw := func(rng *rand.Rand, width int) (AttrSet, map[int]bool) {
		model := make(map[int]bool)
		var attrs []int
		for i, n := 0, rng.Intn(width+1); i < n; i++ {
			a := rng.Intn(width)
			attrs = append(attrs, a)
			model[a] = true
		}
		// Build through every constructor: from the width (may keep
		// trailing zero words), from the members, and by Add on nil.
		var s AttrSet
		switch rng.Intn(3) {
		case 0:
			s = FullAttrSet(width)
			for i := range s {
				s[i] = 0
			}
			s.Add(attrs...)
		case 1:
			s = NewAttrSet(attrs...)
		default:
			s.Add(attrs...)
		}
		return s, model
	}
	sameAs := func(s AttrSet, model map[int]bool, width int) bool {
		if s.Len() != len(model) {
			return false
		}
		for a := -1; a <= width+wordBits; a++ {
			if s.Has(a) != model[a] {
				return false
			}
		}
		sorted := s.Sorted()
		if len(sorted) != len(model) {
			return false
		}
		for i, a := range sorted {
			if !model[a] || (i > 0 && sorted[i-1] >= a) {
				return false
			}
		}
		return true
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		wa, wb := widths[rng.Intn(len(widths))], widths[rng.Intn(len(widths))]
		a, ma := draw(rng, wa)
		b, mb := draw(rng, wb)
		if !sameAs(a, ma, wa) || !sameAs(b, mb, wb) {
			t.Logf("seed %d: construction at widths %d, %d", seed, wa, wb)
			return false
		}
		intersects, aHasB, bHasA := false, true, true
		for x := range ma {
			intersects = intersects || mb[x]
			bHasA = bHasA && mb[x]
		}
		for x := range mb {
			aHasB = aHasB && ma[x]
		}
		if a.Intersects(b) != intersects || b.Intersects(a) != intersects ||
			a.ContainsAll(b) != aHasB || b.ContainsAll(a) != bHasA ||
			a.Equal(b) != (aHasB && bHasA) {
			t.Logf("seed %d: predicates at widths %d, %d: a=%v b=%v", seed, wa, wb, a.Sorted(), b.Sorted())
			return false
		}
		u := a.Clone()
		u.Union(b)
		mu := make(map[int]bool)
		for x := range ma {
			mu[x] = true
		}
		for x := range mb {
			mu[x] = true
		}
		if !sameAs(u, mu, max(wa, wb)) || !sameAs(a, ma, wa) || !u.ContainsAll(a) || !u.ContainsAll(b) {
			t.Logf("seed %d: union at widths %d, %d", seed, wa, wb)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, w := range widths {
		full := FullAttrSet(w)
		if full.Len() != w || full.Has(w) || !full.Has(w-1) {
			t.Errorf("FullAttrSet(%d) = %v", w, full.Sorted())
		}
	}
}
