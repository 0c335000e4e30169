// External test: an encode that starts at its batch from the planning
// replay's history builds the model the walk of the whole log from
// statement 0 builds, row for row and bit for bit.
package milp_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/encode"
	"repro/internal/oltp"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/workload"
)

// encodeOutcome is what one Encode call gives: the model's digest and
// sizes, the parameter list and the statistics, or the error.
func encodeOutcome(d0 *relation.Table, log []query.Query, complaints []encode.Complaint, opt encode.Options) string {
	res, err := encode.Encode(d0, log, complaints, opt)
	if err != nil {
		return "error: " + err.Error()
	}
	defer res.Model.Release()
	return fmt.Sprintf("digest %#x params %v stats %+v", modelDigest(res.Model), res.Params, res.Stats)
}

// checkFromHistory encodes log (recorded, or a repair of it) twice: from
// the recorded log's history, and walked from statement 0, which a
// history of log itself with a clone of its first statement makes the
// encoder do (the logs then differ there). A start that missed a
// rewritten statement before it would still read the rewritten log's
// states there, where the recorded log's history has other ones.
func checkFromHistory(t *testing.T, name string, d0 *relation.Table, recorded, log []query.Query, complaints []encode.Complaint, opt encode.Options) {
	t.Helper()
	record := func(log []query.Query) *query.History {
		h := new(query.History)
		if _, err := h.Replay(log, d0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return h
	}
	opt.History = record(slices.Concat([]query.Query{log[0].Clone()}, log[1:]))
	full := encodeOutcome(d0, log, complaints, opt)
	opt.History = record(recorded)
	if got := encodeOutcome(d0, log, complaints, opt); got != full {
		t.Errorf("%s: from the history\n  %s\nfrom statement 0\n  %s", name, got, full)
	}
}

// rewrite returns log with statement k's constants moved by delta,
// copy on write as a repair is.
func rewrite(log []query.Query, k int, delta float64) []query.Query {
	out := slices.Clone(log)
	p := out[k].Params()
	for i := range p {
		p[i] += delta
	}
	out[k] = out[k].Clone()
	if err := out[k].SetParams(p); err != nil {
		panic(err)
	}
	return out
}

// workloadCase is a workload instance with its complaints and the
// statements worth starting a batch at.
type workloadCase struct {
	name       string
	in         *workload.Instance
	complaints []encode.Complaint
	ids, soft  []int64
	attrs      []int // the attributes the complaints differ in
	batches    []int
}

func newWorkloadCase(t *testing.T, name string, w *workload.Workload, corrupt int) workloadCase {
	t.Helper()
	in, err := w.MakeInstance(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	c := workloadCase{name: name, in: in}
	complained := make(map[int64]bool)
	var attrs query.AttrSet
	for _, cp := range in.Complaints {
		c.complaints = append(c.complaints, encode.Complaint{TupleID: cp.TupleID, Exists: cp.Exists, Values: cp.Values})
		c.ids = append(c.ids, cp.TupleID)
		complained[cp.TupleID] = true
		if before, ok := in.DirtyFinal.Get(cp.TupleID); ok && cp.Exists {
			for a := range cp.Values {
				if before.Values[a] != cp.Values[a] {
					attrs.Add(a)
				}
			}
		}
	}
	c.attrs = attrs.Sorted()
	for id := int64(1); id < in.DirtyFinal.NextID() && len(c.soft) < 4; id += 7 {
		if !complained[id] {
			c.soft = append(c.soft, id)
		}
	}
	c.batches = []int{corrupt, len(in.Dirty) - 1, len(in.Dirty) / 3, 0}
	return c
}

// withDeletes splices a DELETE of a narrow range of attribute a after
// every step-th statement of w's log.
func withDeletes(w *workload.Workload, a, step int, rng *rand.Rand) *workload.Workload {
	var log []query.Query
	for i, q := range w.Log {
		log = append(log, q)
		if i%step == step-1 {
			lo := float64(1 + rng.Intn(40))
			log = append(log, query.NewDelete(query.NewAnd(
				query.AttrPred(a, query.GE, lo), query.AttrPred(a, query.LE, lo+1))))
		}
	}
	return workload.NewCustom(workload.Config{Seed: 1, Vd: 3000}, w.Schema, w.D0, log, nil)
}

// TestEncodeFromHistoryMatchesFullWalk encodes batches of synthetic,
// TPC-C and TATP histories with INSERTs and DELETEs both ways: tuple
// sliced with soft tuples, attribute sliced, with the other tracked
// tuples fixed (FixNonComplaints), every tuple fixed, and over
// refinement logs that rewrite a statement after the batch's start or
// before it. Every model, parameter list and statistic from the history
// is the walk's from statement 0.
func TestEncodeFromHistoryMatchesFullWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var cases []workloadCase
	for seed := int64(1); seed <= 3; seed++ {
		w, err := workload.Generate(workload.Config{ND: 60, Nq: 40, Na: 4, Range: 12, Mix: workload.Mixed, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for corrupt := len(w.Log) - 3; corrupt >= 0; corrupt-- {
			if _, ok := w.Log[corrupt].(*query.Update); ok {
				cases = append(cases, newWorkloadCase(t, fmt.Sprintf("synthetic-%d", seed), w, corrupt))
				break
			}
		}
	}
	tpcc := withDeletes(oltp.TPCC(oltp.TPCCConfig{Orders: 200, Queries: 150, Seed: 3}), 3, 20, rng)
	tatp := withDeletes(oltp.TATP(oltp.TATPConfig{Subscribers: 150, Queries: 120, Seed: 4}), 0, 25, rng)
	for _, w := range []struct {
		name string
		w    *workload.Workload
	}{{"tpcc", tpcc}, {"tatp", tatp}} {
		for corrupt := len(w.w.Log) - 5; corrupt >= 0; corrupt-- {
			if _, ok := w.w.Log[corrupt].(*query.Update); ok {
				cases = append(cases, newWorkloadCase(t, w.name, w.w, corrupt))
				break
			}
		}
	}
	deletes := 0
	for _, c := range cases {
		for _, q := range c.in.Dirty {
			if _, ok := q.(*query.Delete); ok {
				deletes++
			}
		}
		d0, log := c.in.W.D0, c.in.Dirty
		for _, b := range c.batches {
			param := map[int]bool{b: true}
			opts := map[string]encode.Options{
				"sliced":     {ParamQueries: param, TupleIDs: c.ids, SoftTupleIDs: c.soft},
				"attrs":      {ParamQueries: param, TupleIDs: c.ids, Attrs: c.attrs},
				"fixed":      {ParamQueries: param, TupleIDs: slices.Concat(c.ids, c.soft), FixNonComplaints: true},
				"every":      {ParamQueries: param, FixNonComplaints: true},
				"two-params": {ParamQueries: map[int]bool{b: true, len(log) - 1: true}, TupleIDs: c.ids, SoftTupleIDs: c.soft},
			}
			for name, opt := range opts {
				checkFromHistory(t, fmt.Sprintf("%s batch %d %s", c.name, b, name), d0, log, log, c.complaints, opt)
			}
			// A refinement round: the batch's statement and a later one
			// rewritten, then one before the batch.
			refine := rewrite(log, b, 1)
			if b+1 < len(log) {
				refine = rewrite(refine, len(log)-1, 2)
			}
			opt := encode.Options{ParamQueries: param, TupleIDs: c.ids, SoftTupleIDs: c.soft}
			checkFromHistory(t, fmt.Sprintf("%s batch %d refined", c.name, b), d0, log, refine, c.complaints, opt)
			if b > 0 {
				early := rewrite(refine, b/2, 3)
				checkFromHistory(t, fmt.Sprintf("%s batch %d rewritten before it", c.name, b), d0, log, early, c.complaints, opt)
			}
		}
	}
	if deletes == 0 {
		t.Fatal("no case holds a DELETE")
	}
}

// picker draws the choices of a random case from fuzz bytes: each
// draw reads one byte, and 0 once they run out.
type picker []byte

func (p *picker) intn(n int) int {
	if len(*p) == 0 {
		return 0
	}
	b := (*p)[0]
	*p = (*p)[1:]
	return int(b) % n
}

// fuzzCase builds a small encode from fuzz bytes: a three-attribute D0,
// a log of UPDATEs (constant, relative, two SETs under an OR), INSERTs
// and DELETEs, one or two parameterized statements, complaints on
// tuples of D0, inserted or deleted, soft tuples, one of the slicing
// modes and possibly a rewritten statement.
func fuzzCase(p *picker) (d0 *relation.Table, recorded, log []query.Query, complaints []encode.Complaint, opt encode.Options) {
	const width = 3
	d0 = relation.NewTable(relation.MustSchema("t", []string{"a", "b", "c"}, ""))
	for n := 1 + p.intn(8); n > 0; n-- {
		d0.MustInsert(float64(p.intn(20)), float64(p.intn(20)), float64(p.intn(20)))
	}
	rng := func() query.Cond {
		a, lo := p.intn(width), float64(p.intn(20))
		return query.NewAnd(query.AttrPred(a, query.GE, lo), query.AttrPred(a, query.LE, lo+float64(p.intn(8))))
	}
	for n := 1 + p.intn(12); n > 0; n-- {
		switch p.intn(5) {
		case 0:
			recorded = append(recorded, query.NewInsert(float64(p.intn(20)), float64(p.intn(20)), float64(p.intn(20))))
		case 1:
			recorded = append(recorded, query.NewDelete(rng()))
		case 2:
			recorded = append(recorded, query.NewUpdate([]query.SetClause{{Attr: p.intn(width),
				Expr: query.ConstExpr(float64(p.intn(20)))}}, rng()))
		case 3:
			recorded = append(recorded, query.NewUpdate([]query.SetClause{{Attr: p.intn(width),
				Expr: query.NewLinExpr(float64(p.intn(5)), query.Term{Attr: p.intn(width), Coef: 1})}}, rng()))
		default:
			recorded = append(recorded, query.NewUpdate([]query.SetClause{
				{Attr: 0, Expr: query.NewLinExpr(1, query.Term{Attr: 1, Coef: 1})},
				{Attr: 1, Expr: query.ConstExpr(float64(p.intn(20)))}},
				query.NewOr(rng(), query.AttrPred(p.intn(width), query.EQ, float64(p.intn(20))))))
		}
	}
	final, err := query.Replay(recorded, d0)
	if err != nil {
		panic(err)
	}
	opt.ParamQueries = map[int]bool{p.intn(len(recorded)): true}
	if p.intn(2) == 1 {
		opt.ParamQueries[p.intn(len(recorded))] = true
	}
	ever := final.NextID() - 1 // every ID the log's rows ever had
	seen := make(map[int64]bool)
	for n := 1 + p.intn(3); n > 0; n-- {
		id := 1 + int64(p.intn(int(ever)))
		if seen[id] {
			continue
		}
		seen[id] = true
		c := encode.Complaint{TupleID: id, Exists: p.intn(3) > 0}
		if c.Exists {
			c.Values = []float64{float64(p.intn(20)), float64(p.intn(20)), float64(p.intn(20))}
			if t, ok := final.Get(id); ok && p.intn(2) == 0 {
				c.Values = t.Values
				c.Values[p.intn(width)]++
			}
		}
		complaints = append(complaints, c)
		opt.TupleIDs = append(opt.TupleIDs, id)
	}
	for n := p.intn(3); n > 0; n-- {
		if id := 1 + int64(p.intn(int(ever))); !seen[id] {
			seen[id] = true
			opt.SoftTupleIDs = append(opt.SoftTupleIDs, id)
		}
	}
	switch p.intn(4) {
	case 1:
		opt.Attrs = []int{p.intn(width)}
	case 2:
		opt.TupleIDs, opt.SoftTupleIDs = nil, nil
		opt.FixNonComplaints = true
	case 3:
		opt.FixNonComplaints = true
	}
	log = recorded
	for n := p.intn(3); n > 0; n-- {
		log = rewrite(log, p.intn(len(log)), float64(1+p.intn(3)))
	}
	return d0, recorded, log, complaints, opt
}

// FuzzEncodeFromHistory: for any small case, the encode from the
// recorded log's history gives the model, parameters and statistics of
// the walk from statement 0, or its error.
func FuzzEncodeFromHistory(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23})
	f.Add([]byte("a dense seed that deletes, inserts and rewrites: \x01\x00\x02\x03\x04\x01\x00\x02\x01\x03"))
	rng := rand.New(rand.NewSource(9))
	for range 8 {
		seed := make([]byte, 64)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := picker(data)
		d0, recorded, log, complaints, opt := fuzzCase(&p)
		checkFromHistory(t, "case", d0, recorded, log, complaints, opt)
	})
}
