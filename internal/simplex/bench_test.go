package simplex

import (
	"bufio"
	"fmt"
	"os"
	"testing"
)

// loadEncoderNode reads testdata/encoder_node.txt: one branch-and-bound
// child captured mid-search (node 20, depth 10) from a diagnosis of the
// synthetic instance nd=104 nq=39 seed 1137 — the presolved 593-row,
// 218-variable big-M model under the child's bounds, and the parent's
// end basis the child installs. The format is column-major: "m n"; per
// variable "lb ub obj k" and k "row coef" pairs; per row "op rhs"; the m
// basis entries; the n+m iterate values. The rows are gathered from the
// columns and added in order, and the column view is built, so p.cols
// reads as the file does.
func loadEncoderNode(tb testing.TB) (*Problem, *Snapshot) {
	tb.Helper()
	f, err := os.Open("testdata/encoder_node.txt")
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	scan := func(a ...any) {
		if _, err := fmt.Fscan(r, a...); err != nil {
			tb.Fatalf("testdata/encoder_node.txt: %v", err)
		}
	}
	var m, n int
	scan(&m, &n)
	p := NewProblem()
	rows := make([][]Coef, m)
	for j := 0; j < n; j++ {
		var lb, ub, obj float64
		var k int
		scan(&lb, &ub, &obj, &k)
		p.AddVar(lb, ub, obj)
		for ; k > 0; k-- {
			var row int
			var coef float64
			scan(&row, &coef)
			rows[row] = append(rows[row], Coef{Var: j, Coef: coef})
		}
	}
	for i := 0; i < m; i++ {
		var op int
		var rhs float64
		scan(&op, &rhs)
		p.AddConstr(rows[i], ConstrOp(op), rhs)
	}
	p.BuildCols()
	sn := &Snapshot{m: m, n: n, basis: make([]int, m), xval: make([]float64, n+m)}
	for i := range sn.basis {
		scan(&sn.basis[i])
	}
	for i := range sn.xval {
		scan(&sn.xval[i])
	}
	return p, sn
}

// BenchmarkRefactorize factors the captured basis. Once the first call
// has grown the factor's buffers it must report 0 allocs/op.
func BenchmarkRefactorize(b *testing.B) {
	p, sn := loadEncoderNode(b)
	f := newFactor(sn.m)
	if !f.refactorize(p.cols, sn.n, sn.basis) {
		b.Fatal("captured basis is singular")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.refactorize(p.cols, sn.n, sn.basis)
	}
}

// BenchmarkInstallSolve is what branch-and-bound pays for one child:
// install the parent's end basis, re-optimize under the child's bounds.
// A first, untimed child grows the solver's buffers, so even a one-
// iteration run reports the steady state: 1 allocs/op, the Solution's X.
func BenchmarkInstallSolve(b *testing.B) {
	p, sn := loadEncoderNode(b)
	ws := NewSolver(p, Options{})
	if !ws.Install(sn) {
		b.Fatal("Install rejected the captured basis")
	}
	ws.Solve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !ws.Install(sn) {
			b.Fatal("Install rejected the captured basis")
		}
		if sol := ws.Solve(); sol.Status != Optimal && sol.Status != Infeasible {
			b.Fatalf("child LP ended %v", sol.Status)
		}
	}
}
