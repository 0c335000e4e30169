package simplex

import (
	"math"
	"slices"
)

// This file holds the factorized basis representation that backs the
// revised simplex: a sparse LU factorization of the basis matrix with an
// eta file of rank-one updates (product-form updates kept as sparse eta
// vectors, the classical cheap half of Forrest-Tomlin). The solver never
// materializes B^{-1}; it answers the two queries revised simplex needs —
// FTRAN (B w = a, the entering column in basis coordinates) and BTRAN
// (B^T y = c_B, the duals) — by triangular solves against L, U, and the
// eta file. On the encoder's models a basis column touches a handful of
// rows, so a pivot costs O(nnz) instead of the O(m^2) a dense inverse
// update pays, and a refactorization costs little more than the fill of
// L+U instead of Gauss-Jordan's O(m^3).
//
// Refactorization is pattern-driven (Gilbert-Peierls style): a column is
// scattered into a dense accumulator while its nonzero rows are listed,
// and every later step walks that list, never 0..m. An encoder basis is
// mostly unit slack columns, each of which then costs O(1), and the
// whole factorization O(m + nnz log nnz) where the dense scans it
// replaced (kept as the test reference, denseRefactorize) read 4 m^2
// values. The arithmetic and its order are those of the dense routine,
// so L, U and the permutation are bit-for-bit the same.
//
// Representation: P B = L U with a row permutation P chosen by partial
// pivoting, then B' = B E_1 ... E_k after k basis changes, where each
// E_t is an identity matrix whose column r_t is the FTRAN'd entering
// column w_t. L is unit lower triangular and U upper triangular, both
// stored column-wise in permuted row coordinates; the etas live entirely
// in basis-position coordinates, their entries packed end to end in one
// arena that the next refactorization truncates, so a pivot allocates
// nothing once the arena has grown to its working size.
//
// Most positions of an encoder basis hold a unit slack: empty L and U
// columns, diagonal exactly 1. The triangular solves walk only the
// positions refactorize listed as not such (lpos, upos); every step they
// skip would divide by 1 or subtract nothing, so no bit changes.

// fentry is one stored nonzero of an L/U column or an eta vector.
type fentry struct {
	i int // row index (see owner for the coordinate space)
	v float64
}

// feta is one product-form update: the basis position r that changed and
// the FTRAN'd entering column w split as pivot w[r] plus off-pivot
// entries.
type feta struct {
	r    int
	piv  float64
	ents []fentry
}

const (
	// factorDropTol: entries below this magnitude are treated as exact
	// zeros when building L, U, or an eta — they carry no information at
	// the solver's 1e-7 feasibility scale and only cost fill.
	factorDropTol = 1e-13
	// factorPivTol: a factorization whose best available pivot in some
	// column is below this declares the basis singular, matching the old
	// Gauss-Jordan threshold.
	factorPivTol = 1e-10
	// maxEtas bounds the eta file before the solver refactorizes: long
	// eta chains both slow FTRAN/BTRAN and accumulate the drift the
	// repair loop exists to flush.
	maxEtas = 64
)

// factor is a basis factorization. All storage, the eta vectors
// included, is reused across refactorizations and, through the solver
// workspace that owns it, across solvers: size fits it to a basis
// dimension, and once the growable buffers have reached their working
// size neither a refactorization nor an eta update allocates.
type factor struct {
	m     int
	rowOf []int // permuted position -> original row
	pinv  []int // original row -> permuted position (-1 while factoring)

	// lcols and ucols may be longer than m: the columns past m keep their
	// storage for a later, larger basis.
	lcols [][]fentry // L by column, strictly below-diagonal, permuted rows
	ucols [][]fentry // U by column, strictly above-diagonal, permuted rows
	udiag []float64  // U diagonal by column
	lpos  []int      // ascending positions whose L column is non-empty
	upos  []int      // ascending positions whose U column is non-empty or diagonal is not 1
	etas  []feta
	arena []fentry // backing store of every eta's ents; truncated with the eta file

	work  []float64 // dense scratch, original-row space; all zero between refactorizations
	work2 []float64 // dense scratch, permuted/position space

	// Pattern state of the column refactorize is working on; mark is all
	// false and the lists empty between calls, on the singular exit too.
	mark  []bool // row is listed in pat
	pat   []int  // rows the scattered column has touched, in first-touch order
	heap  []int  // min-heap: positions of pivoted pattern rows awaiting elimination
	lrows []int  // rows of the L column being emitted
}

// size fits the factor to an m-row basis, reusing its storage. Dense
// buffers come back cleared; identity or refactorize truncates every L
// and U column before a solve reads it.
func (f *factor) size(m int) {
	f.m = m
	f.rowOf, f.pinv, f.udiag = resize(f.rowOf, m), resize(f.pinv, m), resize(f.udiag, m)
	f.work, f.work2, f.mark = resize(f.work, m), resize(f.work2, m), resize(f.mark, m)
	if k := m - len(f.lcols); k > 0 {
		f.lcols = append(f.lcols, make([][]fentry, k)...)
		f.ucols = append(f.ucols, make([][]fentry, k)...)
	}
}

// resize returns b with length n and every element zero, reusing b's
// storage when it is large enough.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// identity resets the factorization to the identity basis (the cold
// slack basis: every slack coefficient is +1). O(m), no pivoting needed.
func (f *factor) identity() {
	for i := 0; i < f.m; i++ {
		f.rowOf[i] = i
		f.pinv[i] = i
		f.lcols[i] = f.lcols[i][:0]
		f.ucols[i] = f.ucols[i][:0]
		f.udiag[i] = 1
	}
	f.lpos, f.upos = f.lpos[:0], f.upos[:0]
	f.etas = f.etas[:0]
	f.arena = f.arena[:0]
}

// refactorize factors the basis matrix whose k-th column is structural
// column cols[basis[k]] when basis[k] < n and the unit slack column of row
// basis[k]-n otherwise, discarding the eta file. Left-looking with
// partial pivoting; reports false when some column admits no pivot
// above factorPivTol (singular basis).
func (f *factor) refactorize(cols [][]entry, n int, basis []int) bool {
	m := f.m
	for i := 0; i < m; i++ {
		f.pinv[i] = -1
	}
	f.lpos, f.upos = f.lpos[:0], f.upos[:0]
	f.etas = f.etas[:0]
	f.arena = f.arena[:0]
	x := f.work
	for j := 0; j < m; j++ {
		// Scatter column j, then eliminate against the already-factored
		// columns: x starts as a_j and becomes L^{-1} P a_j restricted to
		// the rows seen so far. L columns keep original-row indices until
		// the whole permutation is known.
		if b := basis[j]; b < n {
			for _, e := range cols[b] {
				f.touch(e.row)
				x[e.row] += e.coef
			}
		} else if r := b - n; f.pinv[r] < 0 {
			// The slack of a row nothing has claimed, which is most of an
			// encoder basis: its own pivot, 1, with nothing above or below.
			f.ucols[j] = f.ucols[j][:0]
			f.lcols[j] = f.lcols[j][:0]
			f.udiag[j] = 1
			f.pinv[r] = j
			f.rowOf[j] = r
			continue
		} else {
			f.touch(r)
			x[r] += 1
		}
		// Earlier columns must be applied in ascending order. The heap
		// holds the positions of the pivoted rows in the pattern; column
		// t's fill lands only on rows that were unpivoted at step t, whose
		// positions, if they have one by now, exceed t — so pops ascend.
		// Row rowOf[t] is final once popped, which makes it U's entry t.
		ucol := f.ucols[j][:0]
		for len(f.heap) > 0 {
			t := f.heapPop()
			r := f.rowOf[t]
			pt := x[r]
			if pt == 0 {
				continue
			}
			for _, e := range f.lcols[t] {
				f.touch(e.i)
				x[e.i] -= e.v * pt
			}
			if math.Abs(pt) > factorDropTol {
				ucol = append(ucol, fentry{t, pt})
			}
			x[r] = 0
		}
		f.ucols[j] = ucol
		// Partial pivoting over the rows no earlier column claimed:
		// largest magnitude, lowest row on ties.
		best, bv := -1, factorPivTol
		for _, r := range f.pat {
			if f.pinv[r] >= 0 {
				continue
			}
			if a := math.Abs(x[r]); a > bv || (a == bv && best >= 0 && r < best) {
				best, bv = r, a
			}
		}
		if best < 0 {
			// Singular: clear scratch before bailing so later calls see a
			// clean workspace.
			for _, r := range f.pat {
				x[r] = 0
				f.mark[r] = false
			}
			f.pat = f.pat[:0]
			return false
		}
		piv := x[best]
		x[best] = 0
		f.udiag[j] = piv
		f.pinv[best] = j
		f.rowOf[j] = best
		if len(ucol) > 0 || piv != 1 {
			f.upos = append(f.upos, j)
		}
		// L's entries go out in ascending row order: btran accumulates in
		// entry order, so the order is part of the result.
		lrows, sorted := f.lrows[:0], true
		for _, r := range f.pat {
			f.mark[r] = false
			if f.pinv[r] >= 0 {
				continue
			}
			if math.Abs(x[r]) > factorDropTol {
				sorted = sorted && (len(lrows) == 0 || lrows[len(lrows)-1] < r)
				lrows = append(lrows, r)
			} else {
				x[r] = 0
			}
		}
		f.pat = f.pat[:0]
		if !sorted { // a column without fill lists its rows as the problem does, ascending
			slices.Sort(lrows)
		}
		lcol := f.lcols[j][:0]
		for _, r := range lrows {
			lcol = append(lcol, fentry{r, x[r] / piv})
			x[r] = 0
		}
		f.lcols[j] = lcol
		f.lrows = lrows
		if len(lcol) > 0 {
			f.lpos = append(f.lpos, j)
		}
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

// touch lists row r in the current column's pattern, queueing it for
// elimination when an earlier column already pivoted on it.
func (f *factor) touch(r int) {
	if f.mark[r] {
		return
	}
	f.mark[r] = true
	f.pat = append(f.pat, r)
	if t := f.pinv[r]; t >= 0 {
		f.heapPush(t)
	}
}

func (f *factor) heapPush(t int) {
	h := append(f.heap, t)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= t {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = t
	f.heap = h
}

func (f *factor) heapPop() int {
	h := f.heap
	top, last := h[0], h[len(h)-1]
	h = h[:len(h)-1]
	n := len(h)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[c] >= last {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	f.heap = h
	return top
}

// ftran solves B w = a in place: x enters holding a in original-row
// coordinates and leaves holding w in basis-position coordinates.
func (f *factor) ftran(x []float64) {
	m := f.m
	w := f.work2
	for t := 0; t < m; t++ {
		w[t] = x[f.rowOf[t]]
	}
	for _, t := range f.lpos { // L solve, unit diagonal, forward
		v := w[t]
		if v == 0 {
			continue
		}
		for _, e := range f.lcols[t] {
			w[e.i] -= e.v * v
		}
	}
	for k := len(f.upos) - 1; k >= 0; k-- { // U solve, backward
		j := f.upos[k]
		v := w[j]
		if v == 0 {
			continue
		}
		v /= f.udiag[j]
		w[j] = v
		for _, e := range f.ucols[j] {
			w[e.i] -= e.v * v
		}
	}
	copy(x, w)
	for k := range f.etas { // eta inverses, oldest first
		e := &f.etas[k]
		t := x[e.r] / e.piv
		if t != 0 {
			for _, en := range e.ents {
				x[en.i] -= en.v * t
			}
		}
		x[e.r] = t
	}
}

// btran solves B^T y = c in place: c enters in basis-position
// coordinates and leaves holding y in original-row coordinates.
func (f *factor) btran(c []float64) {
	m := f.m
	for k := len(f.etas) - 1; k >= 0; k-- { // eta transposes, newest first
		e := &f.etas[k]
		s := c[e.r]
		for _, en := range e.ents {
			s -= en.v * c[en.i]
		}
		c[e.r] = s / e.piv
	}
	for _, j := range f.upos { // U^T solve, forward
		s := c[j]
		for _, e := range f.ucols[j] {
			s -= e.v * c[e.i]
		}
		c[j] = s / f.udiag[j]
	}
	for k := len(f.lpos) - 1; k >= 0; k-- { // L^T solve, backward
		j := f.lpos[k]
		s := c[j]
		for _, e := range f.lcols[j] {
			s -= e.v * c[e.i]
		}
		c[j] = s
	}
	w := f.work2
	for t := 0; t < m; t++ {
		w[f.rowOf[t]] = c[t]
	}
	copy(c, w)
}

// update appends the product-form eta for a basis change at position r
// with FTRAN'd entering column w. Reports false when the pivot is too
// small to invert safely. The eta's entries go to the end of the arena
// as a capped subslice; when the arena regrows, the older etas keep
// reading the backing array they were written to.
func (f *factor) update(r int, w []float64) bool {
	piv := w[r]
	if math.Abs(piv) < 1e-11 {
		return false
	}
	a := f.arena
	start := len(a)
	for i, v := range w {
		if i != r && math.Abs(v) > factorDropTol {
			a = append(a, fentry{i, v})
		}
	}
	f.arena = a
	f.etas = append(f.etas, feta{r: r, piv: piv, ents: a[start:len(a):len(a)]})
	return true
}

// needsRefactor reports that the eta file has grown past the point where
// refactorizing is cheaper (and numerically safer) than continuing.
func (f *factor) needsRefactor() bool { return len(f.etas) >= maxEtas }
