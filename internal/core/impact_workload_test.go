// External test: FullImpact against an independent transcription of the
// paper's Algorithm 2 (an import cycle keeps oltp out of the in-package
// tests).
package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/oltp"
	"repro/internal/query"
)

// algorithm2 transcribes the paper's Algorithm 2 literally, over plain
// map sets: for i from n down to 1, F(qi) starts as I(qi), and for every
// later qj with F(qi) ∩ P(qj) ≠ ∅, F(qi) ∪= F(qj). O(n²) set tests; it
// shares nothing with FullImpact beyond Definition 7's I and P.
func algorithm2(log []query.Query, width int) [][]int {
	n := len(log)
	impact := make([]map[int]bool, n)
	for i := n - 1; i >= 0; i-- {
		f := map[int]bool{}
		for _, a := range query.DirectImpact(log[i], width).Sorted() {
			f[a] = true
		}
		for j := i + 1; j < n; j++ {
			meets := false
			for _, a := range query.Dependency(log[j]).Sorted() {
				meets = meets || f[a]
			}
			if meets {
				for a := range impact[j] {
					f[a] = true
				}
			}
		}
		impact[i] = f
	}
	out := make([][]int, n)
	for i, f := range impact {
		for a := range f {
			out[i] = append(out[i], a)
		}
		slices.Sort(out[i])
	}
	return out
}

// mixedImpactLog builds a log of every statement shape the closure
// distinguishes: INSERT, DELETE, UPDATE with constant and relative SETs,
// and WHERE TRUE. Half the attribute draws come from the top three
// attributes, so at widths above 64 chains cross the first word often.
func mixedImpactLog(rng *rand.Rand, n, width int) []query.Query {
	attr := func() int {
		if rng.Intn(2) == 0 {
			return max(0, width-1-rng.Intn(3))
		}
		return rng.Intn(width)
	}
	where := func() query.Cond {
		if rng.Intn(5) == 0 {
			return query.True{}
		}
		return query.AttrPred(attr(), query.GE, float64(rng.Intn(50)))
	}
	log := make([]query.Query, n)
	for i := range log {
		switch rng.Intn(8) {
		case 0:
			vals := make([]float64, width)
			for j := range vals {
				vals[j] = float64(rng.Intn(50))
			}
			log[i] = query.NewInsert(vals...)
		case 1:
			log[i] = query.NewDelete(where())
		default:
			set := make([]query.SetClause, rng.Intn(2)+1)
			for k := range set {
				set[k] = query.SetClause{Attr: attr(), Expr: query.ConstExpr(float64(rng.Intn(50)))}
				if rng.Intn(2) == 0 { // relative SET reads other attributes
					set[k].Expr = query.NewLinExpr(1,
						query.Term{Attr: attr(), Coef: 1}, query.Term{Attr: attr(), Coef: 2})
				}
			}
			log[i] = query.NewUpdate(set, where())
		}
	}
	return log
}

func sameClosure(t *testing.T, name string, log []query.Query, width int) {
	t.Helper()
	got := core.FullImpact(log, width)
	want := algorithm2(log, width)
	if len(got) != len(want) {
		t.Fatalf("%s: %d closures, want %d", name, len(got), len(want))
	}
	for i := range got {
		if g := got[i].Sorted(); !slices.Equal(g, want[i]) {
			t.Fatalf("%s: F(q%d) = %v, Algorithm 2 gives %v", name, i, g, want[i])
		}
	}
}

// FullImpact's per-attribute reach sets must give exactly Algorithm 2's
// closures, element for element, on both sides of the 64-attribute word
// boundary and on the OLTP histories of §7.
func TestFullImpactMatchesAlgorithm2(t *testing.T) {
	for _, width := range []int{1, 2, 63, 64, 65, 130} {
		for seed := int64(0); seed < 60; seed++ {
			rng := rand.New(rand.NewSource(seed))
			log := mixedImpactLog(rng, rng.Intn(40)+1, width)
			sameClosure(t, fmt.Sprintf("width %d seed %d", width, seed), log, width)
		}
	}
	// Attributes past the schema width (a malformed log) keep their
	// meaning as members: q0 writes 70, q1 reads it and writes 1, q2
	// reads 1 and writes 130.
	beyond := []query.Query{
		query.NewUpdate([]query.SetClause{{Attr: 70, Expr: query.ConstExpr(1)}},
			query.AttrPred(0, query.GE, 1)),
		query.NewUpdate([]query.SetClause{{Attr: 1, Expr: query.ConstExpr(2)}},
			query.AttrPred(70, query.GE, 1)),
		query.NewUpdate([]query.SetClause{{Attr: 130, Expr: query.NewLinExpr(0, query.Term{Attr: 1, Coef: 1})}},
			query.True{}),
	}
	sameClosure(t, "beyond the schema", beyond, 2)
	tpcc := oltp.TPCC(oltp.TPCCConfig{Orders: 2500, Queries: 1500, Seed: 7})
	sameClosure(t, "tpcc", tpcc.Log, tpcc.Schema.Width())
	tatp := oltp.TATP(oltp.TATPConfig{Subscribers: 2500, Queries: 1500, Seed: 7})
	sameClosure(t, "tatp", tatp.Log, tatp.Schema.Width())
}
