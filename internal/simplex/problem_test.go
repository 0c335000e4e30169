package simplex

import (
	"math"
	"testing"

	"repro/internal/freelist"
)

// refProblem is the column store Problem replaced, kept as the reference
// the flat rows are held to: AddConstr summed each variable's terms in a
// map (0+c1+c2+…) and appended every nonzero sum to that variable's own
// growing column.
type refProblem struct {
	lb, ub, obj []float64
	cols        [][]entry
	rhs         []float64
	ops         []ConstrOp
}

func (r *refProblem) addVar(lb, ub, obj float64) {
	r.lb, r.ub, r.obj = append(r.lb, lb), append(r.ub, ub), append(r.obj, obj)
	r.cols = append(r.cols, nil)
}

func (r *refProblem) addConstr(terms []Coef, op ConstrOp, rhs float64) {
	row := len(r.rhs)
	sum := make(map[int]float64, len(terms))
	for _, t := range terms {
		sum[t.Var] += t.Coef
	}
	for v, c := range sum {
		if c != 0 {
			r.cols[v] = append(r.cols[v], entry{row: row, coef: c})
		}
	}
	r.rhs = append(r.rhs, rhs)
	r.ops = append(r.ops, op)
}

// scriptCoefs are the coefficients a build script draws from: zeros of both
// signs, values that cancel exactly or only nearly (0.1+0.2-0.3), values
// whose sums overflow or underflow, and the infinities.
var scriptCoefs = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 3, 0.1, 0.2, -0.3,
	1e-300, -1e-300, 1e308, -1e308, math.Inf(1), math.Inf(-1),
}

// buildScript reads data as a build script and applies it to a fresh
// Problem and to the reference side by side: per step, a variable, a
// row of up to sixteen terms over the variables so far (duplicated,
// unsorted, zero), or a comparison of the two mid-build, which builds
// the column view before more rows and variables arrive and so has the
// next one rebuild it in place.
func buildScript(t *testing.T, data []byte) (*Problem, *refProblem) {
	p, r := NewProblem(), &refProblem{}
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	for len(data) > 0 {
		switch op := next() % 8; {
		case op < 2:
			lb, ub, obj := -float64(next()%3), float64(next()%4), float64(next()%5-2)
			p.AddVar(lb, ub, obj)
			r.addVar(lb, ub, obj)
		case op == 2:
			sameAsReference(t, p, r)
		default:
			n := p.NumVars()
			if n == 0 {
				continue
			}
			terms := make([]Coef, next()%17)
			for k := range terms {
				terms[k] = Coef{Var: next() % n, Coef: scriptCoefs[next()%len(scriptCoefs)]}
			}
			op, rhs := ConstrOp(next()%3), float64(next()-128)
			p.AddConstr(terms, op, rhs)
			r.addConstr(terms, op, rhs)
		}
	}
	return p, r
}

// sameBits compares two coefficients bit for bit; two NaNs (an infinity
// cancelled against its negation) count as equal.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// sameAsReference builds p's column view and requires p to read exactly
// as the reference: the same variables, rows and operators, every column
// listing the same rows in the same order with bit-identical
// coefficients, and every row's terms the reference's columns read
// across, in ascending variable order.
func sameAsReference(t *testing.T, p *Problem, r *refProblem) {
	t.Helper()
	p.BuildCols()
	if p.NumVars() != len(r.obj) || p.NumRows() != len(r.rhs) {
		t.Fatalf("shape %d×%d, reference %d×%d", p.NumRows(), p.NumVars(), len(r.rhs), len(r.obj))
	}
	rows := make([][]Coef, len(r.rhs))
	for j, col := range r.cols {
		if lb, ub := p.Bounds(j); lb != r.lb[j] || ub != r.ub[j] || p.Obj(j) != r.obj[j] {
			t.Fatalf("var %d: bounds [%g, %g] obj %g, reference [%g, %g] obj %g", j, lb, ub, p.Obj(j), r.lb[j], r.ub[j], r.obj[j])
		}
		k := 0
		p.Col(j, func(row int, coef float64) {
			if k >= len(col) || row != col[k].row || !sameBits(coef, col[k].coef) {
				t.Fatalf("column %d entry %d: (%d, %g), reference %v", j, k, row, coef, col)
			}
			k++
		})
		if k != len(col) {
			t.Fatalf("column %d has %d entries, reference %v", j, k, col)
		}
		for _, e := range col {
			rows[e.row] = append(rows[e.row], Coef{Var: j, Coef: e.coef})
		}
	}
	for i, want := range rows {
		if op, rhs := p.Row(i); op != r.ops[i] || rhs != r.rhs[i] {
			t.Fatalf("row %d: %v %g, reference %v %g", i, op, rhs, r.ops[i], r.rhs[i])
		}
		got := p.Terms(i)
		if len(got) != len(want) {
			t.Fatalf("row %d terms %v, reference %v", i, got, want)
		}
		for k := range got {
			if got[k].Var != want[k].Var || !sameBits(got[k].Coef, want[k].Coef) {
				t.Fatalf("row %d terms %v, reference %v", i, got, want)
			}
		}
	}
}

// FuzzProblemMatchesReference: flat rows and the column view built from
// them read exactly as the map-and-per-column store did, and a problem
// built in storage handed back by Release — first another problem, then
// this one again — reads exactly as a fresh one.
func FuzzProblemMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 1, 3, 1, 0, 3, 1, 5, 4, 3, 1, 0, 0, 1, 1, 3, 2})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 6, 2, 0, 1, 1, 1, 0, 6, 1, 7, 1, 8, 1, 9, 2, 40, 2, 0, 0, 0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27})
	f.Fuzz(func(t *testing.T, data []byte) {
		// A short script reaches every case; the cap keeps the fuzzer's
		// minimization of a new input, quadratic in its length, short.
		if len(data) > 96 {
			data = data[:96]
		}
		// Start from an empty free list, so which buffers an input makes
		// grow depends on the input alone.
		problems = freelist.List[Problem]{}
		p, r := buildScript(t, data)
		sameAsReference(t, p, r)
		p.Release()
		q, rq := buildScript(t, data[len(data)/2:])
		sameAsReference(t, q, rq)
		q.Release()
		p, r = buildScript(t, data)
		sameAsReference(t, p, r)
		p.Release()
	})
}

// heldProblem keeps the last Problem a test made reachable, so it lives
// on the heap as the encoder's do.
var heldProblem *Problem

// A released problem's storage is the next one's: building the captured
// node's problem again, column view included, allocates only the Problem
// value itself.
func TestReleasedProblemIsReused(t *testing.T) {
	src, _ := loadEncoderNode(t)
	build := func() {
		p := NewProblem()
		heldProblem = p
		for j := 0; j < src.NumVars(); j++ {
			lb, ub := src.Bounds(j)
			p.AddVar(lb, ub, src.Obj(j))
		}
		for i := 0; i < src.NumRows(); i++ {
			op, rhs := src.Row(i)
			p.AddConstr(src.Terms(i), op, rhs)
		}
		p.BuildCols()
		p.Release()
	}
	build()
	if a := testing.AllocsPerRun(10, build); a != 1 {
		t.Errorf("building a %d-row problem in released storage allocated %v times, want 1 (the Problem)", src.NumRows(), a)
	}
}
