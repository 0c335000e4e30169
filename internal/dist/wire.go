// Package dist distributes partition-parallel diagnosis across
// processes. The engine in internal/core already decomposes a diagnosis
// into independent partition subproblems; this package makes sharding a
// transport problem, as the ROADMAP puts it: a Coordinator runs planning
// locally, serializes each partition as a self-contained Job (initial
// state, log, complaint subset, pinned sub-Options), and dispatches jobs
// to workers over a versioned wire protocol. Results merge through the
// engine's existing conflict-detection and joint-fallback path, so the
// final repair is always replay-verified, and any job whose worker dies
// or times out mid-solve falls back to the local engine — distribution
// never loses an instance local diagnosis can solve.
//
// Three transports implement the Transport interface: InProc (the
// degenerate zero-network case, used by tests and as a harness for the
// codec round trip), TCP (newline-delimited JSON frames, one connection
// per job, deadline-bounded), and Mux (one persistent connection per
// worker carrying many concurrent jobs, results demultiplexed by job ID
// as they stream back).
package dist

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
)

// WireVersion is the protocol generation this binary speaks: a
// connection may carry any number of concurrent in-flight jobs, and the
// worker streams each result frame as its solve lands — possibly out of
// submission order, matched to its job by ID. Both sides reject frames
// of any other version (the coordinator then solves the job locally),
// so bump it on any incompatible change to the frame types below.
const WireVersion = 3

// Job is one partition subproblem on the wire. It is self-contained:
// the worker needs nothing but the job to solve it.
//
// D0Digest and LogDigest fingerprint the (identical) initial state and
// log that every partition job of one diagnosis carries: workers key an
// LRU of decoded state on them, so repeat jobs skip the decode and —
// via the worker's impact cache — the planning closure. Zero digests
// disable caching for the job; they are an optimization handle, never
// load-bearing for correctness (the full state still rides along).
type Job struct {
	Version   int    `json:"version"`
	ID        uint64 `json:"id"`
	D0Digest  uint64 `json:"d0_digest,omitempty"`
	LogDigest uint64 `json:"log_digest,omitempty"`
	// AttemptTTLNS, when nonzero, is the dispatching attempt's total
	// window (nanoseconds, relative — deliberately not an absolute
	// timestamp, so no cross-machine clock agreement is needed). The
	// server anchors it, on its own clock, at the moment the frame is
	// read off the connection: a job that then waits for a MaxInflight
	// slot past its window — its coordinator long gone — is refused
	// instead of solved as dead work, and a live one has its solve
	// budget clamped to what is left. Time spent BEFORE the read (in
	// socket buffers while the saturated worker isn't reading) is
	// uncounted by design — the blocking read loop is the backpressure
	// that keeps unread frames on the coordinator's side, bounded by
	// its write deadline. Advisory: correctness never depends on it.
	AttemptTTLNS int64            `json:"attempt_ttl_ns,omitempty"`
	D0           wireTable        `json:"d0"`
	Log          []wireQuery      `json:"log"`
	Complaints   []core.Complaint `json:"complaints"`
	Options      wireOptions      `json:"options"`
}

// Result is a worker's answer. Err carries solver-level failures
// (malformed job, version mismatch); transport-level failures surface as
// Go errors from Transport.Do.
type Result struct {
	Version  int         `json:"version"`
	ID       uint64      `json:"id"`
	Err      string      `json:"err,omitempty"`
	Log      []wireQuery `json:"log,omitempty"`
	Changed  []int       `json:"changed,omitempty"`
	Distance float64     `json:"distance"`
	Resolved bool        `json:"resolved"`
	Stats    core.Stats  `json:"stats"`
}

// wireTable serializes a relation.Table, preserving tuple identities and
// the ID counter so replay on the worker allocates identical IDs.
type wireTable struct {
	Name   string           `json:"name"`
	Attrs  []string         `json:"attrs"`
	Key    string           `json:"key,omitempty"`
	Rows   []relation.Tuple `json:"rows"`
	NextID int64            `json:"next_id"`
}

func encodeTable(tb *relation.Table) wireTable {
	s := tb.Schema()
	key := ""
	if s.Key() >= 0 {
		key = s.Attr(s.Key())
	}
	w := wireTable{Name: s.Name(), Attrs: s.Attrs(), Key: key, NextID: tb.NextID()}
	tb.Rows(func(t relation.Tuple) { w.Rows = append(w.Rows, t.Clone()) })
	return w
}

func decodeTable(w wireTable) (*relation.Table, error) {
	s, err := relation.NewSchema(w.Name, w.Attrs, w.Key)
	if err != nil {
		return nil, err
	}
	return relation.NewTableFromRows(s, w.Rows, w.NextID)
}

// wireQuery serializes one query.Query. Kind selects which fields apply.
type wireQuery struct {
	Kind   string    `json:"kind"` // "update" | "insert" | "delete"
	Set    []wireSet `json:"set,omitempty"`
	Where  *wireCond `json:"where,omitempty"`
	Values []float64 `json:"values,omitempty"`
}

type wireSet struct {
	Attr int      `json:"attr"`
	Expr wireExpr `json:"expr"`
}

type wireExpr struct {
	Terms []query.Term `json:"terms,omitempty"`
	Const float64      `json:"const"`
}

func encodeExpr(e query.LinExpr) wireExpr {
	return wireExpr{Terms: append([]query.Term(nil), e.Terms...), Const: e.Const}
}

func decodeExpr(w wireExpr) query.LinExpr {
	return query.NewLinExpr(w.Const, w.Terms...)
}

// wireCond serializes the WHERE-condition tree.
type wireCond struct {
	Op   string     `json:"op"` // "true" | "pred" | "and" | "or"
	LHS  *wireExpr  `json:"lhs,omitempty"`
	Cmp  string     `json:"cmp,omitempty"` // "=" | "<=" | ">=" | "<" | ">"
	RHS  float64    `json:"rhs,omitempty"`
	Kids []wireCond `json:"kids,omitempty"`
}

func encodeCond(c query.Cond) (*wireCond, error) {
	switch v := c.(type) {
	case query.True:
		return &wireCond{Op: "true"}, nil
	case *query.Pred:
		lhs := encodeExpr(v.LHS)
		return &wireCond{Op: "pred", LHS: &lhs, Cmp: v.Op.String(), RHS: v.RHS}, nil
	case *query.And:
		kids, err := encodeConds(v.Kids)
		if err != nil {
			return nil, err
		}
		return &wireCond{Op: "and", Kids: kids}, nil
	case *query.Or:
		kids, err := encodeConds(v.Kids)
		if err != nil {
			return nil, err
		}
		return &wireCond{Op: "or", Kids: kids}, nil
	}
	return nil, fmt.Errorf("dist: unsupported condition type %T", c)
}

func encodeConds(kids []query.Cond) ([]wireCond, error) {
	out := make([]wireCond, len(kids))
	for i, k := range kids {
		w, err := encodeCond(k)
		if err != nil {
			return nil, err
		}
		out[i] = *w
	}
	return out, nil
}

func decodeCond(w *wireCond) (query.Cond, error) {
	if w == nil {
		return query.True{}, nil
	}
	switch w.Op {
	case "true":
		return query.True{}, nil
	case "pred":
		if w.LHS == nil {
			return nil, fmt.Errorf("dist: predicate without LHS")
		}
		op, err := decodeCmp(w.Cmp)
		if err != nil {
			return nil, err
		}
		return query.NewPred(decodeExpr(*w.LHS), op, w.RHS), nil
	case "and":
		kids, err := decodeConds(w.Kids)
		if err != nil {
			return nil, err
		}
		return query.NewAnd(kids...), nil
	case "or":
		kids, err := decodeConds(w.Kids)
		if err != nil {
			return nil, err
		}
		return query.NewOr(kids...), nil
	}
	return nil, fmt.Errorf("dist: unknown condition op %q", w.Op)
}

func decodeConds(ws []wireCond) ([]query.Cond, error) {
	out := make([]query.Cond, len(ws))
	for i := range ws {
		k, err := decodeCond(&ws[i])
		if err != nil {
			return nil, err
		}
		out[i] = k
	}
	return out, nil
}

func decodeCmp(s string) (query.CmpOp, error) {
	for _, op := range []query.CmpOp{query.EQ, query.LE, query.GE, query.LT, query.GT} {
		if op.String() == s {
			return op, nil
		}
	}
	return 0, fmt.Errorf("dist: unknown comparison operator %q", s)
}

func encodeQuery(q query.Query) (wireQuery, error) {
	switch v := q.(type) {
	case *query.Update:
		set := make([]wireSet, len(v.Set))
		for i, sc := range v.Set {
			set[i] = wireSet{Attr: sc.Attr, Expr: encodeExpr(sc.Expr)}
		}
		where, err := encodeCond(v.Where)
		if err != nil {
			return wireQuery{}, err
		}
		return wireQuery{Kind: "update", Set: set, Where: where}, nil
	case *query.Insert:
		return wireQuery{Kind: "insert", Values: append([]float64(nil), v.Values...)}, nil
	case *query.Delete:
		where, err := encodeCond(v.Where)
		if err != nil {
			return wireQuery{}, err
		}
		return wireQuery{Kind: "delete", Where: where}, nil
	}
	return wireQuery{}, fmt.Errorf("dist: unsupported query type %T", q)
}

func decodeQuery(w wireQuery) (query.Query, error) {
	switch w.Kind {
	case "update":
		set := make([]query.SetClause, len(w.Set))
		for i, sc := range w.Set {
			set[i] = query.SetClause{Attr: sc.Attr, Expr: decodeExpr(sc.Expr)}
		}
		where, err := decodeCond(w.Where)
		if err != nil {
			return nil, err
		}
		return query.NewUpdate(set, where), nil
	case "insert":
		return query.NewInsert(w.Values...), nil
	case "delete":
		where, err := decodeCond(w.Where)
		if err != nil {
			return nil, err
		}
		return query.NewDelete(where), nil
	}
	return nil, fmt.Errorf("dist: unknown query kind %q", w.Kind)
}

func encodeLog(log []query.Query) ([]wireQuery, error) {
	out := make([]wireQuery, len(log))
	for i, q := range log {
		w, err := encodeQuery(q)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		out[i] = w
	}
	return out, nil
}

func decodeLog(ws []wireQuery) ([]query.Query, error) {
	out := make([]query.Query, len(ws))
	for i, w := range ws {
		q, err := decodeQuery(w)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		out[i] = q
	}
	return out, nil
}

// wireOptions is the serializable subset of core.Options: everything a
// worker needs to reproduce the sub-diagnosis, excluding process-local
// concerns (pool sizes, solver hooks, worker lists — the worker always
// solves its job jointly, single-threaded).
type wireOptions struct {
	Algorithm        int     `json:"algorithm"`
	K                int     `json:"k"`
	TupleSlicing     bool    `json:"tuple_slicing"`
	QuerySlicing     bool    `json:"query_slicing"`
	AttrSlicing      bool    `json:"attr_slicing"`
	SingleCorruption bool    `json:"single_corruption"`
	SkipRefine       bool    `json:"skip_refine"`
	Candidates       []int   `json:"candidates,omitempty"`
	TimeLimitNS      int64   `json:"time_limit_ns"`
	TotalTimeLimitNS int64   `json:"total_time_limit_ns"`
	MaxNodes         int     `json:"max_nodes"`
	DomainBound      float64 `json:"domain_bound"`
	Eps              float64 `json:"eps"`
	Normalize        bool    `json:"normalize"`
	NoFolding        bool    `json:"no_folding"`
	NoParamWindows   bool    `json:"no_param_windows"`
	ColdLP           bool    `json:"cold_lp"`
	// SolverParallel and NoPresolve configure the worker's MILP solver
	// to match the coordinator's. -1 means one LP worker per worker-side
	// CPU; repairs are byte-identical at any setting, so coordinators
	// and workers may disagree on parallelism without disagreeing on
	// output.
	SolverParallel int  `json:"solver_parallel,omitempty"`
	NoPresolve     bool `json:"no_presolve,omitempty"`
}

func encodeOptions(o core.Options) wireOptions {
	return wireOptions{
		Algorithm:        int(o.Algorithm),
		K:                o.K,
		TupleSlicing:     o.TupleSlicing,
		QuerySlicing:     o.QuerySlicing,
		AttrSlicing:      o.AttrSlicing,
		SingleCorruption: o.SingleCorruption,
		SkipRefine:       o.SkipRefine,
		Candidates:       append([]int(nil), o.Candidates...),
		TimeLimitNS:      int64(o.TimeLimit),
		TotalTimeLimitNS: int64(o.TotalTimeLimit),
		MaxNodes:         o.MaxNodes,
		DomainBound:      o.DomainBound,
		Eps:              o.Eps,
		Normalize:        o.Normalize,
		NoFolding:        o.NoFolding,
		NoParamWindows:   o.NoParamWindows,
		ColdLP:           o.ColdLP,
		SolverParallel:   o.SolverParallel,
		NoPresolve:       o.NoPresolve,
	}
}

func decodeOptions(w wireOptions) core.Options {
	return core.Options{
		Algorithm:        core.Algorithm(w.Algorithm),
		K:                w.K,
		TupleSlicing:     w.TupleSlicing,
		QuerySlicing:     w.QuerySlicing,
		AttrSlicing:      w.AttrSlicing,
		SingleCorruption: w.SingleCorruption,
		SkipRefine:       w.SkipRefine,
		Candidates:       append([]int(nil), w.Candidates...),
		TimeLimit:        time.Duration(w.TimeLimitNS),
		TotalTimeLimit:   time.Duration(w.TotalTimeLimitNS),
		MaxNodes:         w.MaxNodes,
		DomainBound:      w.DomainBound,
		Eps:              w.Eps,
		Normalize:        w.Normalize,
		NoFolding:        w.NoFolding,
		NoParamWindows:   w.NoParamWindows,
		ColdLP:           w.ColdLP,
		SolverParallel:   w.SolverParallel,
		NoPresolve:       w.NoPresolve,
	}
}

// EncodeJob packages a partition subproblem for the wire.
func EncodeJob(id uint64, sub core.Subproblem) (*Job, error) {
	log, err := encodeLog(sub.Log)
	if err != nil {
		return nil, err
	}
	return &Job{
		Version:    WireVersion,
		ID:         id,
		D0:         encodeTable(sub.D0),
		Log:        log,
		Complaints: sub.Complaints,
		Options:    encodeOptions(sub.Options),
	}, nil
}

// DecodeJob reconstructs the subproblem, rejecting any protocol version
// but WireVersion.
func DecodeJob(j *Job) (core.Subproblem, error) {
	if j.Version != WireVersion {
		return core.Subproblem{}, fmt.Errorf(
			"dist: protocol version mismatch: job v%d, worker speaks v%d",
			j.Version, WireVersion)
	}
	d0, err := decodeTable(j.D0)
	if err != nil {
		return core.Subproblem{}, err
	}
	log, err := decodeLog(j.Log)
	if err != nil {
		return core.Subproblem{}, err
	}
	return core.Subproblem{
		D0:         d0,
		Log:        log,
		Complaints: j.Complaints,
		Options:    decodeOptions(j.Options),
	}, nil
}

// EncodeResult packages a solved repair (or a solver error) for the wire.
func EncodeResult(id uint64, rep *core.Repair, solveErr error) (*Result, error) {
	res := &Result{Version: WireVersion, ID: id}
	if solveErr != nil {
		res.Err = solveErr.Error()
		return res, nil
	}
	log, err := encodeLog(rep.Log)
	if err != nil {
		return nil, err
	}
	res.Log = log
	res.Changed = append([]int(nil), rep.Changed...)
	res.Distance = rep.Distance
	res.Resolved = rep.Resolved
	res.Stats = rep.Stats
	return res, nil
}

// DecodeResult reconstructs the repair, rejecting any protocol version
// but WireVersion and propagating worker-side solver errors.
func DecodeResult(res *Result) (*core.Repair, error) {
	if res.Version != WireVersion {
		return nil, fmt.Errorf(
			"dist: protocol version mismatch: result v%d, coordinator speaks v%d",
			res.Version, WireVersion)
	}
	if res.Err != "" {
		return nil, fmt.Errorf("dist: worker: %s", res.Err)
	}
	log, err := decodeLog(res.Log)
	if err != nil {
		return nil, err
	}
	return &core.Repair{
		Log:      log,
		Changed:  append([]int(nil), res.Changed...),
		Distance: res.Distance,
		Resolved: res.Resolved,
		Stats:    res.Stats,
	}, nil
}
