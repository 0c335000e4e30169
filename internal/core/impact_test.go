package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/query"
	"repro/internal/relation"
)

// Property: F(q) always contains I(q), and equals I(q) when no later
// query depends on any written attribute.
func TestQuickFullImpactInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const width = 6
		n := rng.Intn(10) + 1
		log := make([]query.Query, n)
		for i := range log {
			set := query.SetClause{Attr: rng.Intn(width),
				Expr: query.ConstExpr(float64(rng.Intn(50)))}
			if rng.Intn(3) == 0 { // relative set reads its attribute
				set.Expr = query.NewLinExpr(1, query.Term{Attr: set.Attr, Coef: 1})
			}
			log[i] = query.NewUpdate([]query.SetClause{set},
				query.AttrPred(rng.Intn(width), query.GE, float64(rng.Intn(50))))
		}
		full := FullImpact(log, width)
		for i, q := range log {
			di := query.DirectImpact(q, width)
			if !full[i].ContainsAll(di) {
				t.Logf("seed %d: F(q%d) missing direct impact", seed, i)
				return false
			}
			// If nothing later reads F(qi)'s attrs, F == I.
			touched := false
			for j := i + 1; j < n; j++ {
				if query.Dependency(log[j]).Intersects(di) {
					touched = true
					break
				}
			}
			if !touched && !full[i].Equal(di) {
				t.Logf("seed %d: F(q%d) grew with no dependent successors", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// slicingInstance builds a random single-corruption instance and returns
// what the slicing-soundness properties need.
func slicingInstance(rng *rand.Rand) (log []query.Query, idx int, complaints []Complaint,
	final *relation.Table, width int, ok bool) {
	d0, dirty, truth, corrupt := randomWorkload(rng)
	dirtyFinal, err := query.Replay(dirty, d0)
	if err != nil {
		return nil, 0, nil, nil, 0, false
	}
	truthFinal, err := query.Replay(truth, d0)
	if err != nil {
		return nil, 0, nil, nil, 0, false
	}
	complaints = ComplaintsFromDiff(dirtyFinal, truthFinal, 1e-9)
	if len(complaints) == 0 {
		return nil, 0, nil, nil, 0, false
	}
	return dirty, corrupt, complaints, dirtyFinal, d0.Schema().Width(), true
}

// Property: query slicing never discards the corrupted query when the
// corruption produced complaints (the candidate set stays sound).
func TestQuickQuerySlicingSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		log, idx, complaints, dirtyFinal, width, ok := slicingInstance(rng)
		if !ok {
			return true
		}
		ac := complaintAttrs(complaints, dirtyFinal)
		full := FullImpact(log, width)
		for _, r := range relevantQueries(full, ac, false) {
			if r == idx {
				return true
			}
		}
		t.Logf("seed %d: corrupted q%d excluded (A(C)=%v)", seed, idx, ac.Sorted())
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the strict single-corruption filter also keeps the corrupted
// query.
func TestQuickSingleCorruptionSlicingSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		log, idx, complaints, dirtyFinal, width, ok := slicingInstance(rng)
		if !ok {
			return true
		}
		ac := complaintAttrs(complaints, dirtyFinal)
		full := FullImpact(log, width)
		for _, r := range relevantQueries(full, ac, true) {
			if r == idx {
				return true
			}
		}
		t.Logf("seed %d: corrupted q%d excluded under single-corruption filter", seed, idx)
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
