package encode_test

import (
	"testing"

	"repro/internal/encode"
	"repro/internal/oltp"
	"repro/internal/query"
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
