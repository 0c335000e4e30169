// Benchmarks regenerating every table and figure of the QFix paper's
// evaluation (§7) at the Quick scale. One benchmark per figure; run the
// full-resolution series with cmd/qfix-bench:
//
//	go test -bench=. -benchmem            # smoke-scale, all figures
//	go run ./cmd/qfix-bench -fig all      # default scale (README.md, "Benchmarks")
package qfix_test

import (
	"testing"

	"repro/internal/bench"
)

// runFig drives one figure at Quick scale per benchmark iteration.
func runFig(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("unknown figure %s", id)
	}
	for i := 0; i < b.N; i++ {
		r := &bench.Runner{Scale: bench.Quick, Seed: int64(i + 1)}
		table, err := e.Run(r)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkFig4 — Figure 4: basic vs single-query parameterization as the
// log grows (basic collapses).
func BenchmarkFig4(b *testing.B) { runFig(b, "fig4") }

// BenchmarkFig6Multi — Figures 6a/6d: multiple corruptions across basic
// and its slicing variants.
func BenchmarkFig6Multi(b *testing.B) { runFig(b, "fig6a") }

// BenchmarkFig6Single — Figures 6b/6e: single corruption, incremental
// variants and batch sizes.
func BenchmarkFig6Single(b *testing.B) { runFig(b, "fig6b") }

// BenchmarkFig6QueryType — Figures 6c/6f: INSERT/DELETE/UPDATE-only
// workloads.
func BenchmarkFig6QueryType(b *testing.B) { runFig(b, "fig6c") }

// BenchmarkFig7Attrs — Figure 7a: table width vs time under slicing.
func BenchmarkFig7Attrs(b *testing.B) { runFig(b, "fig7a") }

// BenchmarkFig7DBSize — Figure 7b: database size vs time (wide table).
func BenchmarkFig7DBSize(b *testing.B) { runFig(b, "fig7b") }

// BenchmarkFig8DBSize — Figure 8a: database size vs time (narrow table).
func BenchmarkFig8DBSize(b *testing.B) { runFig(b, "fig8a") }

// BenchmarkFig8ClauseType — Figure 8b: SET/WHERE clause-type grid.
func BenchmarkFig8ClauseType(b *testing.B) { runFig(b, "fig8b") }

// BenchmarkFig8Incomplete — Figures 8c/8f: incomplete complaint sets.
func BenchmarkFig8Incomplete(b *testing.B) { runFig(b, "fig8c") }

// BenchmarkFig8Skew — Figure 8d: attribute skew.
func BenchmarkFig8Skew(b *testing.B) { runFig(b, "fig8d") }

// BenchmarkFig8Dims — Figure 8e: predicate dimensionality.
func BenchmarkFig8Dims(b *testing.B) { runFig(b, "fig8e") }

// BenchmarkFig9OLTP — Figure 9: TPC-C and TATP repair latency.
func BenchmarkFig9OLTP(b *testing.B) { runFig(b, "fig9") }

// BenchmarkFig10DecTree — Figure 10: DecTree baseline vs QFix.
func BenchmarkFig10DecTree(b *testing.B) { runFig(b, "fig10") }

// BenchmarkExample2 — §7.4 case study: the Figure 2 tax example
// (the paper repairs it in 35 ms on CPLEX).
func BenchmarkExample2(b *testing.B) { runFig(b, "ex2") }
