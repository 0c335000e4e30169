package dist_test

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/oltp"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// TestLogTextRoundTrip checks what the job wire relies on: a statement
// printed over its table's schema parses back to the same statement.
// reflect.DeepEqual compares floats with ==, so every parameter crosses
// bit for bit apart from the sign of a zero, which neither arithmetic
// nor distance sees. It runs over the generated logs the engine is
// handed (range and point WHERE, a mixed log with relative SETs and
// two-predicate WHEREs, TPC-C, TATP, the partition bench's dirty log),
// over the same logs with every parameter drawn from wide, fractional,
// adjacent-float and tiny scales, and over a predicate written with a
// constant on its left.
func TestLogTextRoundTrip(t *testing.T) {
	type history struct {
		name string
		sch  *relation.Schema
		log  []query.Query
	}
	var logs []history
	for seed := int64(1); seed <= 2; seed++ {
		for _, cfg := range []workload.Config{
			{Where: workload.RangeWhere},
			{Where: workload.PointWhere},
			{Mix: workload.Mixed, Set: workload.RelativeSet, NumPreds: 2},
		} {
			cfg.ND, cfg.Nq, cfg.Seed = 50, 300, seed
			w := workload.MustGenerate(cfg)
			logs = append(logs, history{fmt.Sprintf("generate %+v", cfg), w.Schema, w.Log})
		}
	}
	tpcc := oltp.TPCC(oltp.TPCCConfig{Orders: 200, Queries: 400, Seed: 1})
	tatp := oltp.TATP(oltp.TATPConfig{Subscribers: 200, Queries: 400, Seed: 1})
	logs = append(logs, history{"tpcc", tpcc.Schema, tpcc.Log}, history{"tatp", tatp.Schema, tatp.Log})
	w, corrupt, err := bench.PartitionClusters(32, 5, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := w.MakeInstance(corrupt...)
	if err != nil {
		t.Fatal(err)
	}
	logs = append(logs, history{"partition clusters", w.Schema, in.Dirty})

	rng := rand.New(rand.NewSource(1))
	for _, h := range logs[:len(logs):len(logs)] {
		logs = append(logs, history{h.name + ", random parameters", h.sch, randomParams(t, rng, h.log)})
	}

	sch := relation.MustSchema("T", []string{"a", "b"}, "")
	logs = append(logs, history{"constant on the left", sch, []query.Query{query.NewDelete(
		query.NewPred(query.NewLinExpr(-2, query.Term{Attr: 0, Coef: 3}), query.LE, -7))}})

	for _, h := range logs {
		for i, q := range h.log {
			text := q.String(h.sch)
			got, err := sqlparse.Parse(h.sch, text)
			if err != nil {
				t.Fatalf("%s: statement %d %q does not parse: %v", h.name, i, text, err)
			}
			if !reflect.DeepEqual(got, q) {
				t.Fatalf("%s: statement %d %q parses to %s, want %s", h.name, i, text, tree(got), tree(q))
			}
		}
	}
}

// randomParams clones log with every parameter redrawn: up to ±1e6,
// negative fractions, the float next to an integer, and values at the
// 1e-12 scale.
func randomParams(t *testing.T, rng *rand.Rand, log []query.Query) []query.Query {
	out := query.CloneLog(log)
	for _, q := range out {
		p := q.Params()
		for j := range p {
			switch rng.Intn(4) {
			case 0:
				p[j] = (2*rng.Float64() - 1) * 1e6
			case 1:
				p[j] = -rng.Float64()
			case 2:
				p[j] = math.Nextafter(math.Round(p[j]), math.Inf(2*rng.Intn(2)-1))
			default:
				p[j] = rng.NormFloat64() * 1e-12
			}
		}
		if err := q.SetParams(p); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// tree renders a statement's structure, parameters included, for a
// failure message.
func tree(q query.Query) string {
	b, _ := json.Marshal(q)
	return string(b)
}
