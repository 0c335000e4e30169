package simplex

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func newFactor(m int) *factor {
	f := &factor{}
	f.size(m)
	return f
}

// randBasis builds a random m×m matrix with the encoder's sparsity shape
// (a few nonzeros per column, diagonal bumped to keep it comfortably
// nonsingular) and returns it column-major.
func randBasis(rng *rand.Rand, m int) [][]float64 {
	cols := make([][]float64, m)
	for j := range cols {
		cols[j] = make([]float64, m)
		cols[j][j] = 2 + rng.Float64()
		for t := 0; t < 3; t++ {
			cols[j][rng.Intn(m)] += rng.NormFloat64()
		}
	}
	return cols
}

// refactorizeDenseCols factors the matrix given as dense columns: every
// column structural, none slack.
func refactorizeDenseCols(f *factor, cols [][]float64) bool {
	m := len(cols)
	sp := make([][]entry, m)
	basis := make([]int, m)
	for j, col := range cols {
		basis[j] = j
		for i, v := range col {
			if v != 0 {
				sp[j] = append(sp[j], entry{row: i, coef: v})
			}
		}
	}
	return f.refactorize(sp, m, basis)
}

func matVec(cols [][]float64, x []float64) []float64 {
	m := len(cols)
	out := make([]float64, m)
	for j := 0; j < m; j++ {
		if x[j] == 0 {
			continue
		}
		for i := 0; i < m; i++ {
			out[i] += cols[j][i] * x[j]
		}
	}
	return out
}

func matTVec(cols [][]float64, y []float64) []float64 {
	m := len(cols)
	out := make([]float64, m)
	for j := 0; j < m; j++ {
		for i := 0; i < m; i++ {
			out[j] += cols[j][i] * y[i]
		}
	}
	return out
}

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

// TestFactorSolves checks FTRAN and BTRAN against the definition on
// random sparse bases: B·ftran(v) == v and B^T·btran(c) == c.
func TestFactorSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range []int{1, 2, 5, 17, 60} {
		cols := randBasis(rng, m)
		f := newFactor(m)
		if !refactorizeDenseCols(f, cols) {
			t.Fatalf("m=%d: refactorize reported singular on a nonsingular basis", m)
		}
		for trial := 0; trial < 5; trial++ {
			v := make([]float64, m)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			x := append([]float64(nil), v...)
			f.ftran(x)
			if d := maxAbsDiff(matVec(cols, x), v); d > 1e-9 {
				t.Fatalf("m=%d: ftran residual %g", m, d)
			}
			c := make([]float64, m)
			for i := range c {
				c[i] = rng.NormFloat64()
			}
			y := append([]float64(nil), c...)
			f.btran(y)
			if d := maxAbsDiff(matTVec(cols, y), c); d > 1e-9 {
				t.Fatalf("m=%d: btran residual %g", m, d)
			}
		}
	}
}

// TestFactorEtaUpdate replaces basis columns one at a time via eta
// updates and checks the solves still match the updated matrix. It runs
// long enough for needsRefactor to fire at least twice, so the eta arena
// is grown, truncated by a refactorization and written again while the
// residual checks watch every update.
func TestFactorEtaUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := 25
	cols := randBasis(rng, m)
	f := newFactor(m)
	if !refactorizeDenseCols(f, cols) {
		t.Fatal("refactorize failed")
	}
	refactors := 0
	for step := 0; step < 150; step++ {
		// New column a, FTRAN it, then replace basis column r by a.
		a := make([]float64, m)
		r := rng.Intn(m)
		a[r] = 2 + rng.Float64()
		for tt := 0; tt < 3; tt++ {
			a[rng.Intn(m)] += rng.NormFloat64()
		}
		w := append([]float64(nil), a...)
		f.ftran(w)
		if !f.update(r, w) {
			// Pivot too small for this random replacement: skip it, the
			// solver would have rejected the pivot the same way.
			continue
		}
		cols[r] = a
		v := make([]float64, m)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		x := append([]float64(nil), v...)
		f.ftran(x)
		if d := maxAbsDiff(matVec(cols, x), v); d > 1e-7 {
			t.Fatalf("step %d: ftran residual %g after eta update", step, d)
		}
		c := make([]float64, m)
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		y := append([]float64(nil), c...)
		f.btran(y)
		if d := maxAbsDiff(matTVec(cols, y), c); d > 1e-7 {
			t.Fatalf("step %d: btran residual %g after eta update", step, d)
		}
		if f.needsRefactor() {
			if !refactorizeDenseCols(f, cols) {
				t.Fatal("refactorize failed mid-test")
			}
			if len(f.arena) != 0 {
				t.Fatalf("step %d: refactorize left %d arena entries", step, len(f.arena))
			}
			refactors++
		}
	}
	if refactors < 2 {
		t.Fatalf("%d mid-test refactorizations, want at least 2", refactors)
	}
}

// TestFactorSingular: a basis with a dependent column must be rejected.
func TestFactorSingular(t *testing.T) {
	m := 4
	cols := [][]float64{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{1, 1, 0, 0}, // col0 + col1: rank deficient
		{0, 0, 0, 1},
	}
	f := newFactor(m)
	if refactorizeDenseCols(f, cols) {
		t.Fatal("refactorize accepted a singular basis")
	}
}

// denseRefactorize is the refactorization factor.refactorize replaced,
// kept verbatim as the reference: the same left-looking elimination with
// four dense 0..m scans per column. The differential tests below require
// the pattern-driven routine to reproduce its output bit for bit.
func (f *factor) denseRefactorize(cols func(k int, emit func(row int, v float64))) bool {
	m := f.m
	for i := 0; i < m; i++ {
		f.pinv[i] = -1
		f.work[i] = 0
	}
	f.etas = f.etas[:0]
	x := f.work
	for j := 0; j < m; j++ {
		// Scatter column j, then eliminate against the already-factored
		// columns: x starts as a_j and becomes L^{-1} P a_j restricted to
		// the rows seen so far. L columns keep original-row indices until
		// the whole permutation is known.
		cols(j, func(r int, v float64) { x[r] += v })
		for t := 0; t < j; t++ {
			pt := x[f.rowOf[t]]
			if pt == 0 {
				continue
			}
			for _, e := range f.lcols[t] {
				x[e.i] -= e.v * pt
			}
		}
		// Partial pivoting over the rows no earlier column claimed.
		best, bv := -1, factorPivTol
		for r := 0; r < m; r++ {
			if f.pinv[r] >= 0 {
				continue
			}
			if a := math.Abs(x[r]); a > bv {
				best, bv = r, a
			}
		}
		if best < 0 {
			// Singular: clear scratch before bailing so later calls see a
			// clean workspace.
			for r := 0; r < m; r++ {
				x[r] = 0
			}
			return false
		}
		ucol := f.ucols[j][:0]
		for t := 0; t < j; t++ {
			r := f.rowOf[t]
			if v := x[r]; v != 0 {
				if math.Abs(v) > factorDropTol {
					ucol = append(ucol, fentry{t, v})
				}
				x[r] = 0
			}
		}
		f.ucols[j] = ucol
		piv := x[best]
		x[best] = 0
		f.udiag[j] = piv
		f.pinv[best] = j
		f.rowOf[j] = best
		lcol := f.lcols[j][:0]
		for r := 0; r < m; r++ {
			if f.pinv[r] >= 0 || x[r] == 0 {
				continue
			}
			if math.Abs(x[r]) > factorDropTol {
				lcol = append(lcol, fentry{r, x[r] / piv})
			}
			x[r] = 0
		}
		f.lcols[j] = lcol
	}
	// The permutation is complete: rewrite L's row indices into permuted
	// coordinates so the triangular solves index one dense scratch.
	for j := 0; j < m; j++ {
		col := f.lcols[j]
		for k := range col {
			col[k].i = f.pinv[col[k].i]
		}
	}
	return true
}

// testBasis is a basis in the solver's own terms: structural columns,
// their count, and the variable at each basis position (>= n is the
// unit slack of row basis[k]-n).
type testBasis struct {
	m, n  int
	cols  [][]entry
	basis []int
}

func (b *testBasis) emit(k int, emit func(row int, v float64)) {
	if v := b.basis[k]; v < b.n {
		for _, e := range b.cols[v] {
			emit(e.row, e.coef)
		}
	} else {
		emit(v-b.n, 1)
	}
}

// compareRefactorize factors b with the pattern-driven routine on got
// and with the dense reference on a fresh factor, and requires the same
// verdict and, for a nonsingular basis, the same factorization bit for
// bit. It returns the verdict.
func compareRefactorize(t testing.TB, got *factor, b *testBasis) bool {
	t.Helper()
	want := newFactor(b.m)
	wok := want.denseRefactorize(b.emit)
	gok := got.refactorize(b.cols, b.n, b.basis)
	if gok != wok {
		t.Fatalf("refactorize = %v, dense reference = %v", gok, wok)
	}
	for r, v := range got.work {
		if v != 0 || got.mark[r] {
			t.Fatalf("scratch left dirty at row %d: work %g mark %v", r, v, got.mark[r])
		}
	}
	if len(got.pat) != 0 || len(got.heap) != 0 {
		t.Fatalf("pattern lists left non-empty: pat %v heap %v", got.pat, got.heap)
	}
	if !gok {
		return false
	}
	for i := 0; i < b.m; i++ {
		if got.rowOf[i] != want.rowOf[i] || got.pinv[i] != want.pinv[i] {
			t.Fatalf("permutation differs at %d: rowOf %d/%d pinv %d/%d",
				i, got.rowOf[i], want.rowOf[i], got.pinv[i], want.pinv[i])
		}
		if math.Float64bits(got.udiag[i]) != math.Float64bits(want.udiag[i]) {
			t.Fatalf("udiag[%d] = %v, want %v", i, got.udiag[i], want.udiag[i])
		}
		sameEntries(t, "lcols", i, got.lcols[i], want.lcols[i])
		sameEntries(t, "ucols", i, got.ucols[i], want.ucols[i])
	}
	// The solves skip exactly the identity positions.
	var lpos, upos []int
	for j := 0; j < b.m; j++ {
		if len(want.lcols[j]) > 0 {
			lpos = append(lpos, j)
		}
		if len(want.ucols[j]) > 0 || want.udiag[j] != 1 {
			upos = append(upos, j)
		}
	}
	if !slices.Equal(got.lpos, lpos) || !slices.Equal(got.upos, upos) {
		t.Fatalf("lpos %v upos %v, want %v and %v", got.lpos, got.upos, lpos, upos)
	}
	return true
}

func sameEntries(t testing.TB, name string, j int, got, want []fentry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s[%d] has %d entries, want %d:\n got %v\nwant %v", name, j, len(got), len(want), got, want)
	}
	for k := range got {
		if got[k].i != want[k].i || math.Float64bits(got[k].v) != math.Float64bits(want[k].v) {
			t.Fatalf("%s[%d][%d] = %v, want %v", name, j, k, got[k], want[k])
		}
	}
}

// slackHeavyBasis is shaped like a mid-search basis of an encoder model:
// a share slack of the positions hold unit slack columns, the rest
// short structural columns of ±1 and big-M coefficients up to 1e7, one
// of them on the position's own row of a random permutation so that the
// matrix is usually nonsingular.
func slackHeavyBasis(rng *rand.Rand, m int, slack float64) *testBasis {
	b := &testBasis{m: m, basis: make([]int, m)}
	rows := rng.Perm(m)
	for k := 0; k < m; k++ {
		if rng.Float64() < slack {
			b.basis[k] = -1 - rows[k] // slack of rows[k]; resolved once n is known
			continue
		}
		col := []entry{{row: rows[k], coef: encoderCoef(rng)}}
		seen := map[int]bool{rows[k]: true}
		for extra := 1 + rng.Intn(5); extra > 0; extra-- {
			if r := rng.Intn(m); !seen[r] {
				seen[r] = true
				col = append(col, entry{row: r, coef: encoderCoef(rng)})
			}
		}
		rng.Shuffle(len(col), func(i, j int) { col[i], col[j] = col[j], col[i] })
		b.basis[k] = len(b.cols)
		b.cols = append(b.cols, col)
	}
	b.n = len(b.cols)
	for k, v := range b.basis {
		if v < 0 {
			b.basis[k] = b.n + (-1 - v)
		}
	}
	return b
}

func encoderCoef(rng *rand.Rand) float64 {
	// Big-M is the rare coefficient, as in the encoder's rows: chains of
	// 1e7-to-1 pivots otherwise push most bases under factorPivTol.
	switch k := rng.Intn(12); {
	case k < 4:
		return 1
	case k < 8:
		return -1
	case k < 9:
		return (rng.Float64() - 0.5) * 2e7 // big-M
	default:
		return math.Round(rng.NormFloat64()*50) + 0.5
	}
}

// denseBasis fills each column to the given density, coefficients drawn
// from small integers when exact is set (so elimination cancels to exact
// zeros and ties in the pivot choice are common), from a normal
// otherwise.
func denseBasis(rng *rand.Rand, m int, density float64, exact bool) *testBasis {
	b := &testBasis{m: m, n: m, cols: make([][]entry, m), basis: rng.Perm(m)}
	for j := 0; j < m; j++ {
		for i := 0; i < m; i++ {
			if i != j && rng.Float64() >= density {
				continue
			}
			v := rng.NormFloat64()
			if exact {
				if v = float64(rng.Intn(5) - 2); v == 0 {
					continue
				}
			}
			b.cols[j] = append(b.cols[j], entry{row: i, coef: v})
		}
	}
	return b
}

// TestRefactorizeMatchesDense is the bit-identity contract of the
// pattern-driven refactorization, over seeded random bases of every
// shape the solver meets and some it should not.
func TestRefactorizeMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sizes, trials, enough := []int{1, 2, 7, 40, 150, 400}, 12, 100
	if testing.Short() {
		// The dense reference on a filled-in 400-row basis is a minute
		// under the race detector.
		sizes, trials, enough = sizes[:5], 6, 40
	}
	nonsingular := 0
	for _, m := range sizes {
		f := newFactor(m) // reused across the bases of one size, as a solver reuses it
		for trial := 0; trial < trials; trial++ {
			for _, b := range []*testBasis{
				slackHeavyBasis(rng, m, 0.70+0.25*rng.Float64()),
				denseBasis(rng, m, 0.3, false),
				denseBasis(rng, m, 0.15, true),
			} {
				if compareRefactorize(t, f, b) {
					nonsingular++
				}
			}
		}
	}
	if nonsingular < enough {
		t.Fatalf("only %d nonsingular bases compared; the generators went degenerate", nonsingular)
	}
}

// TestRefactorizeSingularLeavesCleanState: a singular basis is rejected
// by both routines, wherever in the column order the missing pivot
// shows, and the same factor then refactorizes a good basis to exactly
// the reference's result.
func TestRefactorizeSingularLeavesCleanState(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, m := range []int{3, 25, 120} {
		f := newFactor(m)
		for trial := 0; trial < 10; trial++ {
			bad := slackHeavyBasis(rng, m, 0.8)
			// Exactly singular either way: an all-zero structural column at
			// a random position, or one row's slack in two positions.
			p, q := rng.Intn(m), rng.Intn(m-1)
			if q >= p {
				q++
			}
			if trial%2 == 0 {
				bad.cols = append(bad.cols, nil)
				for k, v := range bad.basis {
					if v >= bad.n {
						bad.basis[k]++ // slacks sit after the structurals
					}
				}
				bad.basis[p] = bad.n
				bad.n++
			} else {
				bad.basis[p] = bad.n + rng.Intn(m)
				bad.basis[q] = bad.basis[p]
			}
			if compareRefactorize(t, f, bad) {
				t.Fatalf("m=%d trial %d: a singular basis was accepted", m, trial)
			}
			var good *testBasis
			for ok := false; !ok; {
				good = slackHeavyBasis(rng, m, 0.8)
				ok = newFactor(m).denseRefactorize(good.emit)
			}
			if !compareRefactorize(t, f, good) {
				t.Fatalf("m=%d trial %d: good basis rejected after a singular one", m, trial)
			}
		}
	}
}

// fuzzCoefs are the coefficients a fuzz input can name: units, small
// integers that cancel exactly, fractions, big-M magnitudes, and values
// straddling the pivot and drop tolerances.
var fuzzCoefs = [16]float64{1, -1, 2, -2, 3, 0.5, -0.25, 1e7, -1e7, 12345.5, 1e-3, 5e-11, 2e-10, 1e-13, -7, 0.1}

// fuzzBasis decodes bytes into a basis of at most 12 rows: byte 0 picks
// m, then each position reads a header byte (low nibble 0-5: a slack,
// otherwise that many entries modulo 4, plus one) and a (row,
// coefficient) byte per entry. Short input leaves the remaining
// positions as the slacks of their own rows.
func fuzzBasis(data []byte) *testBasis {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return c
	}
	m := 1 + int(next())%12
	b := &testBasis{m: m, basis: make([]int, m)}
	slackOf := make([]int, m) // position -> row, or -1 for structural
	for k := 0; k < m; k++ {
		h := next()
		if h&0x0f <= 5 {
			slackOf[k] = (k + int(h>>4)) % m
			continue
		}
		slackOf[k] = -1
		var col []entry
		for cnt := 1 + int(h>>4)%4; cnt > 0; cnt-- {
			c := next()
			col = append(col, entry{row: int(c>>4) % m, coef: fuzzCoefs[c&0x0f]})
		}
		b.basis[k] = len(b.cols)
		b.cols = append(b.cols, col)
	}
	b.n = len(b.cols)
	for k, r := range slackOf {
		if r >= 0 {
			b.basis[k] = b.n + r
		}
	}
	return b
}

// FuzzRefactorize: any small sparse basis factors to exactly what the
// dense reference produces, and when it factors, FTRAN solves B w = a and
// BTRAN solves B^T y = c, bit for bit as a walk over every position does.
func FuzzRefactorize(f *testing.F) {
	// More seeds, with fill and with singular bases, are in
	// testdata/fuzz/FuzzRefactorize.
	f.Add([]byte{})              // one row, its slack
	f.Add([]byte{1, 0x00, 0x00}) // two rows, the identity
	f.Add([]byte{1, 0x00, 0xf0}) // row 0's slack twice: singular
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBasis(data)
		fac := newFactor(b.m)
		if !compareRefactorize(t, fac, b) {
			return
		}
		// a and c are drawn from the bytes, c read backwards.
		a, c := make([]float64, b.m), make([]float64, b.m)
		for i := range a {
			a[i], c[i] = 1, 1
			if i < len(data) {
				a[i] = fuzzCoefs[data[i]&0x0f]
				c[i] = fuzzCoefs[data[len(data)-1-i]&0x0f]
			}
		}
		x, y := append([]float64(nil), a...), append([]float64(nil), c...)
		fac.ftran(x)
		fac.btran(y)
		// Walking every position instead of lpos and upos changes no bit.
		full := *fac
		full.work2 = make([]float64, b.m)
		full.lpos, full.upos = make([]int, b.m), make([]int, b.m)
		for j := range full.lpos {
			full.lpos[j], full.upos[j] = j, j
		}
		xf, yf := append([]float64(nil), a...), append([]float64(nil), c...)
		full.ftran(xf)
		full.btran(yf)
		for i := range x {
			if math.Float64bits(xf[i]) != math.Float64bits(x[i]) || math.Float64bits(yf[i]) != math.Float64bits(y[i]) {
				t.Fatalf("index %d: full walk ftran %v btran %v, listed walk %v and %v", i, xf[i], yf[i], x[i], y[i])
			}
		}
		// B·ftran(a) = a. LU with partial pivoting is backward stable, so
		// the residual is held to the scale of |B|·|x|, not to a's —
		// provided no pivot is so small that an entry under the absolute
		// factorDropTol mattered next to it (a 2e-10 pivot beside a dropped
		// 1e-13 is a 5e-4 error, in the reference as here).
		for _, d := range fac.udiag {
			if math.Abs(d) < 1e-3 {
				return
			}
		}
		res := make([]float64, b.m)
		scale := 1.0
		for k, xv := range x {
			b.emit(k, func(row int, v float64) {
				res[row] += v * xv
				scale = math.Max(scale, math.Abs(v*xv))
			})
		}
		for i := range res {
			if d := math.Abs(res[i] - a[i]); !(d <= 1e-9*scale) {
				t.Fatalf("row %d: B·ftran(a) = %g, a = %g (scale %g)", i, res[i], a[i], scale)
			}
		}
		// B^T·btran(c) = c: position k's residual is column k against y.
		// It is held to the larger of two scales: the backward error of a
		// solve through the factors, |U^T||L^T||P y| (a basis whose U grew
		// large next to a small pivot solves no better, in the reference
		// as here), and the residual's own terms |v·y|, which cancel when a
		// column repeats a row.
		lt := make([]float64, b.m) // |L^T|·|P y|
		for j := range lt {
			lt[j] = math.Abs(y[fac.rowOf[j]])
			for _, e := range fac.lcols[j] {
				lt[j] += math.Abs(e.v * y[fac.rowOf[e.i]])
			}
		}
		scale = 1.0
		for k := range lt {
			sk := math.Abs(fac.udiag[k] * lt[k])
			for _, e := range fac.ucols[k] {
				sk += math.Abs(e.v * lt[e.i])
			}
			scale = math.Max(scale, sk)
		}
		resT := make([]float64, b.m)
		for k := range resT {
			b.emit(k, func(row int, v float64) {
				resT[k] += v * y[row]
				scale = math.Max(scale, math.Abs(v*y[row]))
			})
		}
		for k := range resT {
			if d := math.Abs(resT[k] - c[k]); !(d <= 1e-9*scale) {
				t.Fatalf("position %d: (B^T·btran(c)) = %g, c = %g (scale %g)", k, resT[k], c[k], scale)
			}
		}
	})
}

// TestRefactorizeAllocatesNothing: once its buffers have grown, a
// refactorization allocates nothing — no closure per column — whether or
// not the eta file it discards holds updates.
func TestRefactorizeAllocatesNothing(t *testing.T) {
	p, sn := loadEncoderNode(t)
	f := newFactor(sn.m)
	basic := make([]bool, sn.n+sn.m)
	for _, v := range sn.basis {
		basic[v] = true
	}
	w := make([]float64, sn.m)
	refactor := func() {
		if !f.refactorize(p.cols, sn.n, sn.basis) {
			t.Fatal("captured basis is singular")
		}
	}
	refactor()
	// Bring nonbasic structural columns in, each at the position where
	// its FTRAN'd column is largest.
	for j := 0; j < sn.n && len(f.etas) < 8; j++ {
		if basic[j] {
			continue
		}
		clear(w)
		for _, e := range p.cols[j] {
			w[e.row] += e.coef
		}
		f.ftran(w)
		r := 0
		for i, v := range w {
			if math.Abs(v) > math.Abs(w[r]) {
				r = i
			}
		}
		f.update(r, w)
	}
	if len(f.etas) != 8 {
		t.Fatalf("built %d etas, want 8", len(f.etas))
	}
	if a := testing.AllocsPerRun(10, refactor); a != 0 {
		t.Errorf("refactorize allocated %v times, want 0", a)
	}
}
