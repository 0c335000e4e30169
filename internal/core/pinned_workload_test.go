// External test: solver counters and repairs pinned on synthetic
// range-UPDATE instances shaped like the benchmark's solver_deep class.
// Branch-and-bound's node, LP-iteration, refactorization and presolve
// counts are a fingerprint of every pivot the LP kernel took; a kernel
// change that claims "same pivots" must leave all of them, and the
// repaired log, exactly as recorded.
package core_test

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// pinnedGolden holds what core.Diagnose produced at 3493872, the commit
// before the pattern-driven LU refactorization: the solver counters of
// Repair.Stats and an FNV-1a digest over the repaired log's canonical
// SQL (the digest benchmark/manifest.json records for the same specs).
var pinnedGolden = []struct {
	nd, nq, rng, age int
	seed             int64
	nodes, lpIters   int
	refactors        int
	presolvedRows    int
	digest           uint64
}{
	{118, 34, 11, 11, 1016, 106, 647, 109, 457, 0xecafd981ede6efb2},
	{104, 39, 14, 6, 1137, 38, 1300, 47, 342, 0xc791122cceda5f03},
	{142, 49, 14, 12, 1044, 163, 652, 165, 43, 0x60cbfefb3541865d},
	{162, 41, 18, 10, 1269, 26, 577, 30, 822, 0x8ea7c993dfa4b8e},
	{124, 37, 19, 15, 1232, 58, 400, 58, 1127, 0xcd88a6a93fec5192},
	{151, 37, 19, 3, 1005, 39, 250, 40, 725, 0x1c9b1044986ea3a5},
	{151, 33, 12, 1, 1248, 112, 895, 116, 0, 0xf4513496f6fbd99a},
	{118, 43, 20, 12, 1386, 10, 605, 16, 278, 0x82cfd6b47353dff5},
}

// pinnedOptions are the qfix CLI's defaults, which solver_deep runs.
func pinnedOptions() core.Options {
	return core.Options{Algorithm: core.Incremental, K: 1, TupleSlicing: true,
		QuerySlicing: true, TimeLimit: 60 * time.Second}
}

// pinnedInstances regenerates the golden table's instances, in order.
func pinnedInstances(tb testing.TB) []*workload.Instance {
	tb.Helper()
	out := make([]*workload.Instance, len(pinnedGolden))
	for i, g := range pinnedGolden {
		w, err := workload.Generate(workload.Config{ND: g.nd, Nq: g.nq, Range: float64(g.rng), Seed: g.seed})
		if err != nil {
			tb.Fatal(err)
		}
		if out[i], err = w.MakeInstance(g.nq - g.age); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// sqlDigest is FNV-1a over the log's canonical SQL, ';' after each
// statement.
func sqlDigest(in *workload.Instance, rep *core.Repair) uint64 {
	h := fnv.New64a()
	for _, q := range rep.Log {
		io.WriteString(h, q.String(in.W.Schema)+";")
	}
	return h.Sum64()
}

func TestSolverCountersPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("solver-bound")
	}
	numFails := obs.Default().Counter("qfix_simplex_numfail_total", "")
	insts := pinnedInstances(t)
	for _, spar := range []int{1, 2} {
		for i, g := range pinnedGolden {
			in := insts[i]
			opt := pinnedOptions()
			opt.SolverParallel = spar
			root := obs.NewTrace("pinned")
			opt.Trace = root
			before := numFails.Value()
			rep, err := core.Diagnose(in.W.D0, in.Dirty, in.Complaints, opt)
			if err != nil {
				t.Fatal(err)
			}
			root.End()
			st := rep.Stats
			got := fmt.Sprintf("{%d, %d, %d, %d, %d, %d, %d, %d, %d, %#x},", g.nd, g.nq, g.rng, g.age, g.seed,
				st.Nodes, st.LPIters, st.Refactorizations, st.PresolvedRows, sqlDigest(in, rep))
			want := fmt.Sprintf("{%d, %d, %d, %d, %d, %d, %d, %d, %d, %#x},", g.nd, g.nq, g.rng, g.age, g.seed,
				g.nodes, g.lpIters, g.refactors, g.presolvedRows, g.digest)
			if got != want {
				t.Errorf("SolverParallel=%d drifted from the golden:\n got %s\nwant %s", spar, got, want)
			}
			// No LP may have ended NumFail or IterLimit: either stops a
			// search early, which a "solve" span reports as status limit.
			if d := numFails.Value() - before; d != 0 {
				t.Errorf("seed %d SolverParallel=%d: %d LP solves ended in NumFail", g.seed, spar, d)
			}
			if n := limitSolves(root); n != 0 {
				t.Errorf("seed %d SolverParallel=%d: %d MILP solves stopped on an LP NumFail/IterLimit", g.seed, spar, n)
			}
		}
	}
}

// limitSolves counts the "solve" spans under sp whose MILP status is
// limit.
func limitSolves(sp *obs.Span) int {
	n := 0
	if sp.Name() == "solve" {
		for _, a := range sp.Attrs() {
			if a.Key == "status" && fmt.Sprint(a.Value) == "limit" {
				n++
			}
		}
	}
	for _, c := range sp.Children() {
		n += limitSolves(c)
	}
	return n
}

// BenchmarkDiagnoseSynthetic is one pass of in-process diagnoses over
// the pinned instances: the solver_deep workload in miniature.
func BenchmarkDiagnoseSynthetic(b *testing.B) {
	insts := pinnedInstances(b)
	opt := pinnedOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range insts {
			rep, err := core.Diagnose(in.W.D0, in.Dirty, in.Complaints, opt)
			if err != nil || !rep.Resolved {
				b.Fatalf("diagnosis failed: %v", err)
			}
		}
	}
}
