package encode

import (
	"fmt"
	"testing"

	"repro/internal/milp"
	"repro/internal/query"
)

// TestPredFoldTable checks predB's fold rules against the comparison
// itself. Over a variable boxed in [lo, hi], "x op 0" may fold to true
// only if it holds at every eps-grid point of the box, and to false only
// if it holds at none. It must also fold whenever one of the two is
// the case, because predBinary's big-M factors assume lo ≤ 0 ≤ hi on a
// predicate that reaches it. Endpoints sit on the eps grid, so the
// boundary 0 is always one of the points checked.
func TestPredFoldTable(t *testing.T) {
	ends := []float64{-1, -0.5, 0, 0.5, 1}
	holds := func(op query.CmpOp, x float64) bool {
		switch op {
		case query.LE:
			return x <= 0
		case query.GE:
			return x >= 0
		case query.LT:
			return x < 0
		case query.GT:
			return x > 0
		}
		return x == 0
	}
	for _, op := range []query.CmpOp{query.EQ, query.LE, query.GE, query.LT, query.GT} {
		for _, lo := range ends {
			for _, hi := range ends {
				if lo > hi {
					continue
				}
				all, none := true, true
				for x := lo; x <= hi; x += eps {
					if holds(op, x) {
						none = false
					} else {
						all = false
					}
				}
				e := &encoder{m: milp.NewModel(), M: 10}
				expr := varAff(e.m, e.m.NewContinuous(lo, hi))
				got := e.predB(expr, op)
				name := fmt.Sprintf("x %v 0 on [%v, %v]", op, lo, hi)
				switch {
				case got.isTrue() != all:
					t.Errorf("%s: folded to true = %v, holds everywhere = %v", name, got.isTrue(), all)
				case got.isFalse() != none:
					t.Errorf("%s: folded to false = %v, holds nowhere = %v", name, got.isFalse(), none)
				}
			}
		}
	}
}
