// Package dist owns the repository's one wire and distributes
// partition-parallel diagnosis over it.
//
// The wire is newline-delimited JSON over TCP (internal/frameconn): one
// Request per line from a Client, one Response per line back, matched
// by ID and possibly out of order. A worker's Server answers ping and
// solve; a qfixd daemon's (internal/qfixd) answers ping and its
// tenants' ops (Ops) and refuses solve.
//
// A solve is one partition subproblem. A Coordinator plans locally,
// ships each partition as a solve (complaints and pinned options over a
// body: D0 and the log as SQL text) and merges the answers through the
// engine's conflict-detection and joint-fallback path, so the repair is
// always replay-verified. A job whose worker dies, times out or answers
// something that is not a repair of it solves on the local engine.
//
// A body is a small, unnamed, in-memory tenant of its connection: both
// ends keep an equal table of the last bodySlots bodies the connection
// carried, updated in frame order, so a solve carries its body only to
// a connection that does not hold it yet and otherwise names it by ID.
// An answer carries only the parameters of the statements it changed.
package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/sqlparse"
)

// WireVersion is the protocol generation this binary speaks; frames of
// any other version are answered with an error naming both.
const WireVersion = 1

// Ops.
const (
	opPing       = "ping"
	opCreate     = "create"
	opAppend     = "append"
	opComplain   = "complain"
	opDiagnose   = "diagnose"
	opCheckpoint = "checkpoint"
	opStats      = "stats"
	opSolve      = "solve"
)

// ErrBusy is the daemon's backpressure: the tenant already has its full
// queue of diagnoses waiting. It is retryable (Response.Busy).
var ErrBusy = errors.New("qfixd: tenant queue full")

// bodySlots is how many bodies each end of a connection holds: a
// protocol constant, since both ends must evict alike.
const bodySlots = 8

// bodyIDs mints body IDs, unique in the process.
var bodyIDs atomic.Uint64

// Request is one client frame.
type Request struct {
	Version int    `json:"v"`
	ID      uint64 `json:"id"`
	Op      string `json:"op"`
	// Tenant names the histstore a daemon op targets (a tenant-less
	// stats request stats the service).
	Tenant string `json:"tenant,omitempty"`

	// create: schema and initial rows of the new tenant's checkpoint.
	Table string      `json:"table,omitempty"`
	Key   string      `json:"key,omitempty"`
	Attrs []string    `json:"attrs,omitempty"`
	Rows  [][]float64 `json:"rows,omitempty"`

	// append: SQL statements to append to the tenant's log, in order.
	SQL []string `json:"sql,omitempty"`

	// complain (staged), diagnose (inline, after the staged) and solve.
	Complaints []core.Complaint `json:"complaints,omitempty"`

	// diagnose and solve: engine options; nil on a diagnose means the
	// CLI defaults.
	Options *DiagnoseOptions `json:"options,omitempty"`

	// solve: Body names the body; D0 and Log carry it when the
	// connection does not hold it yet (a frame carries its body iff it
	// has D0). Log is one statement per entry as query.Query.String
	// prints it over D0's schema. Candidates pins the repair candidates.
	Body       uint64     `json:"body,omitempty"`
	D0         *wireTable `json:"d0,omitempty"`
	Log        []string   `json:"log,omitempty"`
	Candidates []int      `json:"candidates,omitempty"`
	// The subproblem's engine limits that a diagnose has no say over.
	TotalTimeLimitMS int64 `json:"total_time_limit_ms,omitempty"`
	MaxNodes         int   `json:"max_nodes,omitempty"`
	SingleCorruption bool  `json:"single_corruption,omitempty"`
	SkipRefine       bool  `json:"skip_refine,omitempty"`
	// AttemptTTLNS, when nonzero, is the dispatching attempt's window
	// (relative nanoseconds, so no clock agreement is needed), anchored
	// on the server's clock when it reads the frame: a solve that waits
	// for a slot past it is refused, a live one has its budget clamped
	// to what is left. Advisory: correctness never depends on it.
	AttemptTTLNS int64 `json:"attempt_ttl_ns,omitempty"`
}

// Response is one server frame, answering the Request with the same ID.
type Response struct {
	Version int    `json:"v"`
	ID      uint64 `json:"id"`
	// Err carries the failure; empty means success.
	Err string `json:"err,omitempty"`
	// Busy marks an Err as backpressure (ErrBusy): retryable.
	Busy bool `json:"busy,omitempty"`

	// append/complain: statements appended / complaints now staged.
	N int `json:"n,omitempty"`

	// diagnose: the repair, Log the whole repaired history as the qfix
	// CLI prints it (the byte-identity surface). A solve answers
	// Changed, Distance, Resolved and Stats too.
	Log      []string    `json:"log,omitempty"`
	Changed  []int       `json:"changed,omitempty"`
	Distance float64     `json:"distance,omitempty"`
	Resolved bool        `json:"resolved,omitempty"`
	Stats    *core.Stats `json:"stats,omitempty"`

	// stats.
	Tenants int          `json:"tenants,omitempty"`
	Tenant  *TenantStats `json:"tenant,omitempty"`

	// solve: each Changed statement's repaired parameters, in order;
	// every other statement of the repair is the solve's own.
	Params [][]float64 `json:"params,omitempty"`
}

// TenantStats is the stats op's answer for one tenant.
type TenantStats struct {
	LogLen int `json:"log_len"`
	Staged int `json:"staged"`
}

// Job and Result: kept for benchmark/; ROADMAP 2(d) deletes.
type (
	Job    = Request
	Result = Response
)

// DiagnoseOptions is the wire subset of core.Options a diagnose may
// set. The zero value resolves (Resolve) to the qfix CLI's defaults
// (incremental, K=1, tuple and query slicing on, 60s per-solve limit).
// Process-local machinery (pool, partition solver, caches, trace) is
// the server's to wire.
type DiagnoseOptions struct {
	Algorithm      string `json:"algorithm,omitempty"` // "incremental" (default) | "basic"
	K              int    `json:"k,omitempty"`
	Partition      int    `json:"partition,omitempty"`
	SolverParallel int    `json:"solver_parallel,omitempty"`
	NoTupleSlicing bool   `json:"no_tuple_slicing,omitempty"`
	NoQuerySlicing bool   `json:"no_query_slicing,omitempty"`
	AttrSlicing    bool   `json:"attr_slicing,omitempty"`
	TimeLimitMS    int64  `json:"time_limit_ms,omitempty"`
}

// Resolve maps the options onto core.Options with CLI-identical
// defaults (a nil receiver is all defaults), widths clamped to this
// machine's: a repair is the same at any width.
func (o *DiagnoseOptions) Resolve() core.Options {
	opt := o.engine()
	if o == nil || o.Algorithm == "" {
		opt.Algorithm = core.Incremental
	}
	opt.K = max(opt.K, 1)
	if opt.TimeLimit <= 0 {
		opt.TimeLimit = 60 * time.Second
	}
	width := runtime.GOMAXPROCS(0)
	opt.Partition = min(opt.Partition, width)
	opt.SolverParallel = min(opt.SolverParallel, width)
	return opt
}

// engine maps the options onto core.Options member for member, as a
// solve needs them: its subproblem's own.
func (o *DiagnoseOptions) engine() core.Options {
	if o == nil {
		o = new(DiagnoseOptions)
	}
	opt := core.Options{K: o.K, Partition: o.Partition, SolverParallel: o.SolverParallel,
		TupleSlicing: !o.NoTupleSlicing, QuerySlicing: !o.NoQuerySlicing, AttrSlicing: o.AttrSlicing,
		TimeLimit: time.Duration(o.TimeLimitMS) * time.Millisecond}
	if o.Algorithm == core.Incremental.String() {
		opt.Algorithm = core.Incremental
	}
	return opt
}

// ceilMS is d in milliseconds, rounded up.
func ceilMS(d time.Duration) int64 { return int64((d + time.Millisecond - 1) / time.Millisecond) }

// validate rejects frames this generation cannot serve. line, when
// given, is the frame: an old job-protocol peer named its generation
// "version", and the error names it.
func (r *Request) validate(line []byte) error {
	if r.Version != WireVersion {
		v := r.Version
		var old struct {
			V int `json:"version"`
		}
		if v == 0 && json.Unmarshal(line, &old) == nil {
			v = old.V
		}
		return fmt.Errorf("qfixd: protocol v%d not supported (this daemon speaks v%d)", v, WireVersion)
	}
	if r.TotalTimeLimitMS > math.MaxInt64/int64(time.Millisecond) { // as time_limit_ms below
		return fmt.Errorf("qfixd: total_time_limit_ms %d out of range", r.TotalTimeLimitMS)
	}
	o := r.Options
	if o == nil {
		return nil
	}
	if o.Algorithm != "" && o.Algorithm != "basic" && o.Algorithm != "incremental" {
		return fmt.Errorf("qfixd: unknown algorithm %q", o.Algorithm)
	}
	// engine multiplies by time.Millisecond; a larger value would wrap
	// to a tiny or zero limit.
	const limit = math.MaxInt64 / int64(time.Millisecond)
	if o.TimeLimitMS > limit {
		return fmt.Errorf("qfixd: time_limit_ms %d out of range", o.TimeLimitMS)
	}
	return nil
}

// wireTable is a relation.Table with its tuple IDs and ID counter, so
// replay on the worker allocates identical IDs.
type wireTable struct {
	Name   string           `json:"name,omitempty"`
	Attrs  []string         `json:"attrs,omitempty"`
	Key    string           `json:"key,omitempty"`
	Rows   []relation.Tuple `json:"rows,omitempty"`
	NextID int64            `json:"next_id,omitempty"`
}

func encodeTable(tb *relation.Table) *wireTable {
	s := tb.Schema()
	key := ""
	if s.Key() >= 0 {
		key = s.Attr(s.Key())
	}
	w := &wireTable{Name: s.Name(), Attrs: s.Attrs(), Key: key, NextID: tb.NextID()}
	tb.Rows(func(t relation.Tuple) { w.Rows = append(w.Rows, t.Clone()) })
	return w
}

// encodeLog prints each statement as the SQL the worker parses back
// (decodeBody), refusing a schema whose names would not read back.
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

// EncodeJob packages a partition subproblem as a solve, carrying its
// body under a freshly minted ID. It fails when D0's schema has a name
// the log's SQL text cannot carry (sqlparse.CheckSchema).
func EncodeJob(id uint64, sub core.Subproblem) (*Request, error) {
	log, err := encodeLog(sub.Log, sub.D0.Schema())
	if err != nil {
		return nil, err
	}
	return newSolve(id, bodyIDs.Add(1), encodeTable(sub.D0), log, sub), nil
}

// newSolve is the solve of sub over the encoded body, with every
// option but Partition (a solve is solved jointly). Time limits round
// up to whole milliseconds, so no budget becomes "none".
func newSolve(id, body uint64, d0 *wireTable, log []string, sub core.Subproblem) *Request {
	o := sub.Options
	return &Request{Version: WireVersion, ID: id, Op: opSolve, Complaints: sub.Complaints,
		Options: &DiagnoseOptions{Algorithm: o.Algorithm.String(), K: o.K, SolverParallel: o.SolverParallel,
			NoTupleSlicing: !o.TupleSlicing, NoQuerySlicing: !o.QuerySlicing, AttrSlicing: o.AttrSlicing,
			TimeLimitMS: ceilMS(o.TimeLimit)},
		TotalTimeLimitMS: ceilMS(o.TotalTimeLimit), MaxNodes: o.MaxNodes,
		SingleCorruption: o.SingleCorruption, SkipRefine: o.SkipRefine,
		Body: body, D0: d0, Log: log, Candidates: o.Candidates}
}

// DecodeJob reconstructs the subproblem of a solve that carries its
// body, rejecting another version and any statement that does not parse
// against the table's schema.
func DecodeJob(j *Request) (core.Subproblem, error) {
	if err := j.validate(nil); err != nil {
		return core.Subproblem{}, err
	}
	b := decodeBody(j)
	if b.err != nil {
		return core.Subproblem{}, b.err
	}
	return b.subproblem(j), nil
}

// body is a decoded D0 and log, shared read-only by every solve that
// names it. err records a carried body that failed to decode; the
// solves that name it are answered with it.
type body struct {
	d0  *relation.Table
	log []query.Query
	err error
}

// decodeBody decodes the body a solve carries.
func decodeBody(j *Request) *body {
	if j.D0 == nil {
		return &body{err: fmt.Errorf("dist: job %d carries no body", j.ID)}
	}
	s, err := relation.NewSchema(j.D0.Name, j.D0.Attrs, j.D0.Key)
	if err != nil {
		return &body{err: err}
	}
	d0, err := relation.NewTableFromRows(s, j.D0.Rows, j.D0.NextID)
	if err != nil {
		return &body{err: err}
	}
	log := make([]query.Query, len(j.Log))
	for i, stmt := range j.Log {
		if log[i], err = sqlparse.Parse(s, stmt); err != nil {
			return &body{err: fmt.Errorf("query %d: %w", i, err)}
		}
	}
	return &body{d0: d0, log: log}
}

// subproblem is solve j over this body, solved jointly whatever
// partition width the frame names.
func (b *body) subproblem(j *Request) core.Subproblem {
	opt := j.Options.engine()
	opt.Partition, opt.Candidates = 0, slices.Clone(j.Candidates)
	opt.TotalTimeLimit = time.Duration(j.TotalTimeLimitMS) * time.Millisecond
	opt.MaxNodes, opt.SingleCorruption, opt.SkipRefine = j.MaxNodes, j.SingleCorruption, j.SkipRefine
	return core.Subproblem{D0: b.d0, Log: b.log, Complaints: j.Complaints, Options: opt}
}

// EncodeResult packages a solved repair (or a solver error) as a
// solve's answer: the parameters of each changed statement, not the log.
func EncodeResult(id uint64, rep *core.Repair, solveErr error) (*Response, error) {
	res := &Response{Version: WireVersion, ID: id}
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
	st := rep.Stats
	res.Changed, res.Distance, res.Resolved, res.Stats = slices.Clone(rep.Changed), rep.Distance, rep.Resolved, &st
	return res, nil
}

// DecodeResult reconstructs a solve answer's verdict, rejecting another
// version and propagating worker-side errors. Its Log is nil: only the
// job's own log can carry the repair (repairOf).
func DecodeResult(res *Response) (*core.Repair, error) {
	if res.Version != WireVersion {
		return nil, fmt.Errorf("dist: protocol version mismatch: answer v%d, this side speaks v%d",
			res.Version, WireVersion)
	}
	if res.Err != "" {
		return nil, fmt.Errorf("dist: worker: %s", res.Err)
	}
	rep := &core.Repair{Changed: slices.Clone(res.Changed), Distance: res.Distance, Resolved: res.Resolved}
	if res.Stats != nil {
		rep.Stats = *res.Stats
	}
	return rep, nil
}

// repairOf decodes an answer and rebuilds its repair onto log, the
// job's own, copy-on-write. An answer that cannot be a repair of the
// job is rejected: it needs one parameter vector per changed statement,
// each index inside the log and among candidates (nil: any), each
// vector of its statement's arity — or the merge would index past the
// log, or two partitions could claim one statement.
func repairOf(res *Response, log []query.Query, candidates []int) (*core.Repair, error) {
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
