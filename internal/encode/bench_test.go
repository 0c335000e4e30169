package encode_test

import (
	"testing"

	"repro/internal/encode"
	"repro/internal/oltp"
	"repro/internal/query"
	"repro/internal/workload"
)

// BenchmarkEncodeOLTP times the encode stage as a diagnosis runs it on an
// OLTP history: one incremental batch (the corrupted Delivery UPDATE
// parameterized) over a 1200-statement TPC-C ORDER log, tuple-sliced to
// the two complaint tuples, with the domain bound handed in.
func BenchmarkEncodeOLTP(b *testing.B) {
	w := oltp.TPCC(oltp.TPCCConfig{Orders: 2500, Queries: 1200, Seed: 7})
	corrupt := len(w.Log) - 1
	for ; corrupt >= 0; corrupt-- {
		if _, ok := w.Log[corrupt].(*query.Update); ok {
			break
		}
	}
	in, err := w.MakeInstance(corrupt)
	if err != nil {
		b.Fatal(err)
	}
	if len(in.Complaints) != 2 {
		b.Fatalf("setup: %d complaint tuples, want 2", len(in.Complaints))
	}
	opt := encode.Options{
		ParamQueries: map[int]bool{corrupt: true},
		DomainBound:  encode.DomainBound(in.W.D0, in.Dirty, in.DirtyFinal),
	}
	complaints := make([]encode.Complaint, len(in.Complaints))
	for i, c := range in.Complaints {
		opt.TupleIDs = append(opt.TupleIDs, c.TupleID)
		complaints[i] = encode.Complaint{TupleID: c.TupleID, Exists: c.Exists, Values: c.Values}
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := encode.Encode(in.W.D0, in.Dirty, complaints, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// pinnedEncoding is one Encode call as a diagnosis makes it on a
// synthetic range-UPDATE instance: the Inc_1 batch at the corrupted
// query, tuple-sliced to the complaint tuples, domain bound handed in.
type pinnedEncoding struct {
	in         *workload.Instance
	complaints []encode.Complaint
	opt        encode.Options
}

// pinnedEncodings builds that call for each of core's pinned synthetic
// instances (pinned_workload_test.go), the solver_deep class.
func pinnedEncodings(tb testing.TB) []pinnedEncoding {
	tb.Helper()
	var out []pinnedEncoding
	for _, g := range []struct {
		nd, nq, rng, age int
		seed             int64
	}{
		{118, 34, 11, 11, 1016}, {104, 39, 14, 6, 1137}, {142, 49, 14, 12, 1044}, {162, 41, 18, 10, 1269},
		{124, 37, 19, 15, 1232}, {151, 37, 19, 3, 1005}, {151, 33, 12, 1, 1248}, {118, 43, 20, 12, 1386},
	} {
		w, err := workload.Generate(workload.Config{ND: g.nd, Nq: g.nq, Range: float64(g.rng), Seed: g.seed})
		if err != nil {
			tb.Fatal(err)
		}
		in, err := w.MakeInstance(g.nq - g.age)
		if err != nil {
			tb.Fatal(err)
		}
		p := pinnedEncoding{in: in, opt: encode.Options{
			ParamQueries: map[int]bool{g.nq - g.age: true},
			DomainBound:  encode.DomainBound(in.W.D0, in.Dirty, in.DirtyFinal),
		}}
		for _, c := range in.Complaints {
			p.opt.TupleIDs = append(p.opt.TupleIDs, c.TupleID)
			p.complaints = append(p.complaints, encode.Complaint{TupleID: c.TupleID, Exists: c.Exists, Values: c.Values})
		}
		out = append(out, p)
	}
	return out
}

// encodePinned encodes p and releases the model, as a diagnosis does
// once it has solved it.
func encodePinned(tb testing.TB, p pinnedEncoding) {
	res, err := encode.Encode(p.in.W.D0, p.in.Dirty, p.complaints, p.opt)
	if err != nil {
		tb.Fatal(err)
	}
	res.Model.Release()
}

// BenchmarkEncodeSynthetic is one pass of encodes over the pinned
// synthetic instances: solver_deep's encode stage.
func BenchmarkEncodeSynthetic(b *testing.B) {
	ps := pinnedEncodings(b)
	b.ReportAllocs()
	for b.Loop() {
		for _, p := range ps {
			encodePinned(b, p)
		}
	}
}

// An encoder's storage is the next one's: encoding the same instance
// again allocates no expression's terms and no tuple's state, only what
// is the encoding's own: the sliced dirty table (with the list of rows
// it is built from) and its replay (one scratch per UPDATE), the
// Problem, the Result and its Params, and the parameterized query's
// bookkeeping.
func TestEncoderStorageIsReused(t *testing.T) {
	p := pinnedEncodings(t)[0]
	encodePinned(t, p)
	const bound = 51
	if a := testing.AllocsPerRun(10, func() { encodePinned(t, p) }); a > bound {
		t.Errorf("encoding a pinned instance again allocated %v times, want at most %d", a, bound)
	}
}

// TestDomainBoundAllocatesOnce: DomainBound reads every statement's
// constants through one scratch slice, where a Params call per
// statement allocated one each.
func TestDomainBoundAllocatesOnce(t *testing.T) {
	for name, w := range map[string]*workload.Workload{
		"tpcc": oltp.TPCC(oltp.TPCCConfig{Orders: 2500, Queries: 1200, Seed: 7}),
		"tatp": oltp.TATP(oltp.TATPConfig{Subscribers: 2000, Queries: 1100, Seed: 8}),
	} {
		final, err := query.Replay(w.Log, w.D0)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(10, func() { encode.DomainBound(w.D0, w.Log, final) }); n > 1 {
			t.Errorf("%s: DomainBound allocates %.0f times, want at most 1", name, n)
		}
	}
}
