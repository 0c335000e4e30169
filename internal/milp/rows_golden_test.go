// External test: the encoder's models pinned row by row. Encode may
// change how it builds a row, never what the row is: every term in
// stored order with its coefficient's bits, every operator and
// right-hand side, every variable's bounds, integrality and objective.
package milp_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/encode"
	"repro/internal/milp"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/workload"
)

// rowGolden holds what Encode built at cee02c0, the commit before the
// encoder built its rows in scratch storage: model size and the digest
// of modelDigest.
var rowGolden = []struct {
	name       string
	rows, vars int
	digest     uint64
}{
	{"slice-1", 149, 56, 0x57ef204cc520054b},
	{"slice-2", 363, 134, 0xc1975af3882845b2},
	{"slice-3", 407, 153, 0x412dece68d29cd4f},
	{"slice-4", 193, 75, 0x5082cba73a7d6c33},
	{"slice-5", 466, 169, 0x5d509c9a2d71f0bf},
	{"slice-6", 661, 233, 0xcf0ea03c70644016},
	{"slice-7", 713, 247, 0xe7c16fbc15a60ae7},
	{"slice-8", 267, 98, 0x94759270d6dd7468},
	{"pinned-1016-sliced", 762, 252, 0xad5e3774cbfe607e},
	{"pinned-1016-fixed", 5670, 1776, 0x3df28792424fa8b5},
	{"pinned-1137-sliced", 326, 112, 0x2f436f41e56fe142},
	{"pinned-1137-fixed", 1670, 526, 0xff00278d13fbf536},
	{"pinned-1044-sliced", 454, 152, 0xa604dc53936ec5cf},
	{"pinned-1044-fixed", 2274, 716, 0x773e391a6b1d2a4e},
	{"pinned-1269-sliced", 614, 202, 0x84f6040801d7b5bc},
	{"pinned-1269-fixed", 2586, 816, 0xdc22241845f5b3ad},
	{"pinned-1232-sliced", 1056, 342, 0xd9be50173ffa65d5},
	{"pinned-1232-fixed", 3974, 1246, 0xa6e0406116f4214e},
	{"pinned-1005-sliced", 1504, 482, 0xf4d05f2f9c112e14},
	{"pinned-1005-fixed", 4838, 1516, 0xf6c29d3bb3681988},
	{"pinned-1248-sliced", 358, 122, 0x1663d3b44595bb51},
	{"pinned-1248-fixed", 2422, 761, 0x396009b7dbbede8e},
	{"pinned-1386-sliced", 198, 72, 0xde8ec75eb1bc379f},
	{"pinned-1386-fixed", 1894, 596, 0xcbeae975e1c63f76},
}

// modelDigest is FNV-1a over the model's objective constant, then per
// variable its bounds, objective coefficient and integrality, then per
// row its operator, right-hand side and terms in stored order; every
// float by its bits.
func modelDigest(m *milp.Model) uint64 {
	h := fnv.New64a()
	p := milp.ModelProblem(m)
	isInt := milp.ModelIsInt(m)
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	bits := math.Float64bits
	put(bits(milp.ModelObjConst(m)))
	for j := 0; j < p.NumVars(); j++ {
		lb, ub := p.Bounds(j)
		integer := uint64(0)
		if isInt[j] {
			integer = 1
		}
		put(bits(lb), bits(ub), bits(p.Obj(j)), integer)
	}
	for i := 0; i < p.NumRows(); i++ {
		op, rhs := p.Row(i)
		terms := p.Terms(i)
		put(uint64(op), bits(rhs), uint64(len(terms)))
		for _, t := range terms {
			put(uint64(t.Var), bits(t.Coef))
		}
	}
	return h.Sum64()
}

// goldenEncoding is one Encode call the golden pins.
type goldenEncoding struct {
	name       string
	d0         *relation.Table
	log        []query.Query
	complaints []encode.Complaint
	opt        encode.Options
}

// goldenEncodings lists the pinned calls in rowGolden's order: encode's
// sliceCase seeds 1–8, then each of core's pinned synthetic instances
// encoded twice, as an Inc_1 batch at the corrupted query under tuple
// slicing with soft tuples (a refinement round), and with that query
// parameterized over every tuple with the rest fixed (the basic
// algorithm's shape).
func goldenEncodings(tb testing.TB) []goldenEncoding {
	tb.Helper()
	var out []goldenEncoding
	for seed := int64(1); seed <= 8; seed++ {
		d0, log, complaints, opt := sliceCase(seed)
		out = append(out, goldenEncoding{fmt.Sprintf("slice-%d", seed), d0, log, complaints, opt})
	}
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
		corrupt := g.nq - g.age
		in, err := w.MakeInstance(corrupt)
		if err != nil {
			tb.Fatal(err)
		}
		complaints := make([]encode.Complaint, len(in.Complaints))
		ids := make([]int64, len(in.Complaints))
		complained := make(map[int64]bool)
		for i, c := range in.Complaints {
			complaints[i] = encode.Complaint{TupleID: c.TupleID, Exists: c.Exists, Values: c.Values}
			ids[i] = c.TupleID
			complained[c.TupleID] = true
		}
		var soft []int64
		for id := int64(1); id < in.W.D0.NextID() && len(soft) < 6; id++ {
			if !complained[id] {
				soft = append(soft, id)
			}
		}
		bound := encode.DomainBound(in.W.D0, in.Dirty, in.DirtyFinal)
		param := map[int]bool{corrupt: true}
		out = append(out,
			goldenEncoding{fmt.Sprintf("pinned-%d-sliced", g.seed), in.W.D0, in.Dirty, complaints,
				encode.Options{ParamQueries: param, TupleIDs: ids, SoftTupleIDs: soft, DomainBound: bound}},
			goldenEncoding{fmt.Sprintf("pinned-%d-fixed", g.seed), in.W.D0, in.Dirty, complaints,
				encode.Options{ParamQueries: param, FixNonComplaints: true, DomainBound: bound}})
	}
	return out
}

func TestEncodedRowsMatchGolden(t *testing.T) {
	encs := goldenEncodings(t)
	var got []string
	for _, g := range encs {
		res, err := encode.Encode(g.d0, g.log, g.complaints, g.opt)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		got = append(got, fmt.Sprintf("{%q, %d, %d, %#x},", g.name,
			res.Model.NumConstrs(), res.Model.NumVars(), modelDigest(res.Model)))
		res.Model.Release()
	}
	if len(rowGolden) != len(encs) {
		t.Fatalf("golden has %d entries for %d encodings; they read:\n%s",
			len(rowGolden), len(encs), strings.Join(got, "\n"))
	}
	for i, g := range rowGolden {
		want := fmt.Sprintf("{%q, %d, %d, %#x},", g.name, g.rows, g.vars, g.digest)
		if got[i] != want {
			t.Errorf("encoding drifted from the golden:\n got %s\nwant %s", got[i], want)
		}
	}
}

// sliceCase is encode's generator of tuple-sliced encodings
// (internal/encode/slice_test.go), repeated here because a test package
// cannot import another's tests. Its first eight seeds' models are
// pinned above, and their sizes equal encode's sliceGolden entries.
func sliceCase(seed int64) (*relation.Table, []query.Query, []encode.Complaint, encode.Options) {
	rng := rand.New(rand.NewSource(seed))
	const width = 3
	sch := relation.MustSchema("T", []string{"a", "b", "c"}, "")
	d0 := relation.NewTable(sch)
	for i, n := 0, 12+rng.Intn(9); i < n; i++ {
		d0.MustInsert(float64(rng.Intn(100)), float64(rng.Intn(100)), float64(rng.Intn(100)))
	}
	rangePred := func() query.Cond {
		lo := float64(rng.Intn(90))
		a := rng.Intn(width)
		return query.NewAnd(query.AttrPred(a, query.GE, lo), query.AttrPred(a, query.LE, lo+float64(5+rng.Intn(25))))
	}
	var log []query.Query
	for i, n := 0, 10+rng.Intn(7); i < n; i++ {
		switch k := rng.Intn(10); {
		case k < 2:
			log = append(log, query.NewInsert(float64(rng.Intn(100)), float64(rng.Intn(100)), float64(rng.Intn(100))))
		case k < 4:
			log = append(log, query.NewDelete(rangePred()))
		case k < 7:
			log = append(log, query.NewUpdate([]query.SetClause{{Attr: rng.Intn(width),
				Expr: query.ConstExpr(float64(rng.Intn(100)))}}, rangePred()))
		default:
			log = append(log, query.NewUpdate([]query.SetClause{{Attr: rng.Intn(width),
				Expr: query.NewLinExpr(float64(1+rng.Intn(9)), query.Term{Attr: rng.Intn(width), Coef: 1})}}, rangePred()))
		}
	}
	states, err := query.ReplayAll(log, d0)
	if err != nil {
		panic(err)
	}
	final := states[len(states)-1]

	var kept, inserted, deleted []relation.Tuple
	for id := int64(1); id < final.NextID(); id++ {
		if t, ok := final.Get(id); ok {
			if id < d0.NextID() {
				kept = append(kept, t)
			} else {
				inserted = append(inserted, t)
			}
			continue
		}
		for k := len(states) - 1; k >= 0; k-- {
			if t, ok := states[k].Get(id); ok {
				deleted = append(deleted, t)
				break
			}
		}
	}
	var complaints []encode.Complaint
	var soft []int64
	pick := func(from []relation.Tuple, mk func(relation.Tuple) encode.Complaint) {
		if len(from) == 0 {
			return
		}
		i := rng.Intn(len(from))
		complaints = append(complaints, mk(from[i]))
		if len(from) > 1 {
			soft = append(soft, from[(i+1)%len(from)].ID)
		}
	}
	bumped := func(t relation.Tuple) encode.Complaint {
		t.Values[rng.Intn(width)] += 1
		return encode.Complaint{TupleID: t.ID, Exists: true, Values: t.Values}
	}
	pick(kept, bumped)
	pick(inserted, bumped)
	pick(deleted, func(t relation.Tuple) encode.Complaint {
		return encode.Complaint{TupleID: t.ID, Exists: true, Values: t.Values}
	})
	ids := make([]int64, len(complaints))
	used := make(map[int64]bool)
	for i, c := range complaints {
		ids[i] = c.TupleID
		used[c.TupleID] = true
	}
	for _, id := range soft {
		used[id] = true
	}
	for _, t := range kept {
		if !used[t.ID] {
			complaints = append(complaints, encode.Complaint{TupleID: t.ID, Exists: false})
			ids = append(ids, t.ID)
			break
		}
	}
	p := rng.Intn(len(log))
	return d0, log, complaints, encode.Options{
		ParamQueries: map[int]bool{p: true, (p + 1 + rng.Intn(len(log)-1)) % len(log): true},
		TupleIDs:     ids,
		SoftTupleIDs: soft,
	}
}
