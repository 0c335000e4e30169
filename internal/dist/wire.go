// Package dist distributes partition-parallel diagnosis across
// processes. The engine in internal/core already decomposes a diagnosis
// into independent partition subproblems; here a Coordinator runs
// planning locally, serializes each partition as a self-contained Job
// (initial state, the log as SQL text, complaint subset, pinned
// sub-Options), and dispatches jobs to workers over a versioned wire
// protocol. Results merge through the engine's conflict-detection and
// joint-fallback path, so the final repair is always replay-verified,
// and any job whose worker dies or times out mid-solve falls back to the
// local engine — distribution never loses an instance local diagnosis
// can solve.
//
// The fleet's one network transport is MuxTransport: one persistent
// connection per worker carrying many concurrent jobs, results
// demultiplexed by job ID as they stream back. While a worker's link is
// down or backing off, a job's attempt on it fails at once and the
// coordinator moves on to the next worker, then the local engine.
// InProc implements Transport without a network, a harness for the
// codec round trip. MuxTransport and the worker's Server frame
// newline-delimited JSON through internal/frameconn: one accept loop,
// one 64 MiB cap on every frame read, one bounded frame write.
//
// Every partition job of a diagnosis shares one body, its D0 and log.
// Both ends of a connection keep an equal table of the last bodySlots
// bodies it carried, updated in frame order, so a job carries its body
// only to a connection that does not hold it yet and otherwise names
// it by ID. A result carries only the repaired parameters of the
// statements it changed; the coordinator rebuilds the repair onto its
// own copy of the log.
package dist

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/sqlparse"
)

// WireVersion is the protocol generation this binary speaks: a
// connection may carry any number of concurrent in-flight jobs, the
// worker streams each result frame as its solve lands — possibly out of
// submission order, matched to its job by ID — and a job names its body
// instead of carrying it when its connection already holds it. Both
// sides reject frames of any other version (the coordinator then solves
// the job locally), so bump it on any incompatible change to the frame
// types below.
const WireVersion = 5

// bodySlots is how many bodies each end of a connection holds. It is a
// protocol constant, not a setting: the coordinator decides which jobs
// carry their body by mirroring the worker's table, so both ends must
// evict alike.
const bodySlots = 8

// bodyIDs mints body IDs. IDs are unique in the process, so no two
// bodies share one on any connection, whichever coordinators share a
// transport.
var bodyIDs atomic.Uint64

// Job is one partition subproblem on the wire. It is self-contained once
// its body is resolved: the worker needs nothing but the job and the
// body its connection holds under Body to solve it.
//
// D0 and Log are the body. They are present only when the receiving
// connection does not hold body Body yet; a frame carries its body iff
// it has D0. The in-process transport always carries it.
// Log is SQL text, one statement per entry as query.Query.String prints
// it over D0's schema; the worker parses it back with internal/sqlparse,
// the one statement format of the CLI log, histstore and qfixd. A schema
// whose names that text cannot carry is not encoded (EncodeJob).
type Job struct {
	Version int    `json:"version"`
	ID      uint64 `json:"id"`
	Body    uint64 `json:"body,omitempty"`
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
	D0           *wireTable       `json:"d0,omitempty"`
	Log          []string         `json:"log,omitempty"`
	Complaints   []core.Complaint `json:"complaints"`
	Options      wireOptions      `json:"options"`
}

// Result is a worker's answer. Err carries solver-level failures
// (malformed job, unknown body, version mismatch); transport-level
// failures surface as Go errors from Transport.Do. Params holds, for
// each Changed statement in order, its repaired parameters (query
// canonical order); every other statement of the repair is the job's
// own.
type Result struct {
	Version  int         `json:"version"`
	ID       uint64      `json:"id"`
	Err      string      `json:"err,omitempty"`
	Changed  []int       `json:"changed,omitempty"`
	Params   [][]float64 `json:"params,omitempty"`
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

// encodeLog prints each statement as the SQL the worker parses back
// against the body's table (decodeBody). It refuses a schema whose
// names would not read back as the same names.
func encodeLog(log []query.Query, sch *relation.Schema) ([]string, error) {
	if err := sqlparse.CheckSchema(sch); err != nil {
		return nil, err
	}
	out := make([]string, len(log))
	for i, q := range log {
		out[i] = q.String(sch)
	}
	return out, nil
}

// wireOptions is the serializable subset of core.Options: everything a
// worker needs to reproduce the sub-diagnosis, excluding process-local
// concerns (pool sizes, solver hooks, worker lists — the worker always
// solves its job jointly, single-threaded).
type wireOptions struct {
	Algorithm        int   `json:"algorithm"`
	K                int   `json:"k"`
	TupleSlicing     bool  `json:"tuple_slicing"`
	QuerySlicing     bool  `json:"query_slicing"`
	AttrSlicing      bool  `json:"attr_slicing"`
	SingleCorruption bool  `json:"single_corruption"`
	SkipRefine       bool  `json:"skip_refine"`
	Candidates       []int `json:"candidates,omitempty"`
	TimeLimitNS      int64 `json:"time_limit_ns"`
	TotalTimeLimitNS int64 `json:"total_time_limit_ns"`
	MaxNodes         int   `json:"max_nodes"`
	// SolverParallel configures the worker's MILP solver to match the
	// coordinator's. -1 means one LP worker per worker-side CPU; repairs
	// are byte-identical at any setting, so coordinators and workers may
	// disagree on parallelism without disagreeing on output.
	SolverParallel int `json:"solver_parallel,omitempty"`
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
		SolverParallel:   o.SolverParallel,
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
		SolverParallel:   w.SolverParallel,
	}
}

// EncodeJob packages a partition subproblem for the wire, carrying its
// body under a freshly minted ID. It fails when D0's schema has a name
// the log's SQL text cannot carry (sqlparse.CheckSchema).
func EncodeJob(id uint64, sub core.Subproblem) (*Job, error) {
	log, err := encodeLog(sub.Log, sub.D0.Schema())
	if err != nil {
		return nil, err
	}
	d0 := encodeTable(sub.D0)
	return &Job{
		Version:    WireVersion,
		ID:         id,
		Body:       bodyIDs.Add(1),
		D0:         &d0,
		Log:        log,
		Complaints: sub.Complaints,
		Options:    encodeOptions(sub.Options),
	}, nil
}

// DecodeJob reconstructs the subproblem of a job that carries its body,
// rejecting any protocol version but WireVersion and any statement that
// does not parse against the table's schema, such as one naming an
// attribute the table does not have.
func DecodeJob(j *Job) (core.Subproblem, error) {
	if err := checkVersion("job", j.Version); err != nil {
		return core.Subproblem{}, err
	}
	b := decodeBody(j)
	if b.err != nil {
		return core.Subproblem{}, b.err
	}
	return b.subproblem(j), nil
}

// checkVersion rejects a frame of any protocol version but WireVersion.
func checkVersion(frame string, v int) error {
	if v != WireVersion {
		return fmt.Errorf("dist: protocol version mismatch: %s v%d, this side speaks v%d",
			frame, v, WireVersion)
	}
	return nil
}

// body is a decoded D0 and log, shared read-only by every job that
// names it: the engine replays onto clones and repairs onto cloned
// logs. err records a carried body that failed to decode; the jobs that
// name it are answered with it.
type body struct {
	d0  *relation.Table
	log []query.Query
	err error
}

// decodeBody decodes the body a job carries.
func decodeBody(j *Job) *body {
	if j.D0 == nil {
		return &body{err: fmt.Errorf("dist: job %d carries no body", j.ID)}
	}
	d0, err := decodeTable(*j.D0)
	if err != nil {
		return &body{err: err}
	}
	log := make([]query.Query, len(j.Log))
	for i, stmt := range j.Log {
		if log[i], err = sqlparse.Parse(d0.Schema(), stmt); err != nil {
			return &body{err: fmt.Errorf("query %d: %w", i, err)}
		}
	}
	return &body{d0: d0, log: log}
}

// subproblem is job j over this body.
func (b *body) subproblem(j *Job) core.Subproblem {
	return core.Subproblem{
		D0:         b.d0,
		Log:        b.log,
		Complaints: j.Complaints,
		Options:    decodeOptions(j.Options),
	}
}

// EncodeResult packages a solved repair (or a solver error) for the
// wire: the parameters of each changed statement, not the log.
func EncodeResult(id uint64, rep *core.Repair, solveErr error) (*Result, error) {
	res := &Result{Version: WireVersion, ID: id}
	if solveErr != nil {
		res.Err = solveErr.Error()
		return res, nil
	}
	res.Params = make([][]float64, len(rep.Changed))
	for i, qi := range rep.Changed {
		if qi < 0 || qi >= len(rep.Log) {
			return nil, fmt.Errorf("dist: repair changes statement %d of a %d-statement log", qi, len(rep.Log))
		}
		res.Params[i] = rep.Log[qi].Params()
	}
	res.Changed = append([]int(nil), rep.Changed...)
	res.Distance = rep.Distance
	res.Resolved = rep.Resolved
	res.Stats = rep.Stats
	return res, nil
}

// DecodeResult reconstructs the repair's verdict — changed statements,
// distance, resolution and stats — rejecting any protocol version but
// WireVersion and propagating worker-side solver errors. Its Log is
// nil: only the job's own log can carry the repair (repairOf).
func DecodeResult(res *Result) (*core.Repair, error) {
	if err := checkVersion("result", res.Version); err != nil {
		return nil, err
	}
	if res.Err != "" {
		return nil, fmt.Errorf("dist: worker: %s", res.Err)
	}
	return &core.Repair{
		Changed:  append([]int(nil), res.Changed...),
		Distance: res.Distance,
		Resolved: res.Resolved,
		Stats:    res.Stats,
	}, nil
}

// repairOf decodes a result and rebuilds its repair onto log, the job's
// own log, copy-on-write: the repair shares every statement it did not
// change. A result that cannot be a repair of the job is rejected: a
// parameter vector per changed statement, each index inside the log and
// each vector of its statement's arity, or the partition merge would
// index past the log or the statement; and each index among candidates,
// the job's pinned repair candidates (nil: any statement), or two
// partitions could both claim one statement.
func repairOf(res *Result, log []query.Query, candidates []int) (*core.Repair, error) {
	rep, err := DecodeResult(res)
	if err != nil {
		return nil, err
	}
	if len(res.Params) != len(rep.Changed) {
		return nil, fmt.Errorf("dist: result has %d parameter vectors for %d changed statements",
			len(res.Params), len(rep.Changed))
	}
	rep.Log = slices.Clone(log)
	for i, qi := range rep.Changed {
		if qi < 0 || qi >= len(log) {
			return nil, fmt.Errorf("dist: result changes statement %d of a %d-statement log", qi, len(log))
		}
		if candidates != nil && !slices.Contains(candidates, qi) {
			return nil, fmt.Errorf("dist: result changes statement %d outside the job's candidates", qi)
		}
		rep.Log[qi] = log[qi].Clone()
		if err := rep.Log[qi].SetParams(res.Params[i]); err != nil {
			return nil, fmt.Errorf("dist: result changes statement %d: %w", qi, err)
		}
	}
	return rep, nil
}
