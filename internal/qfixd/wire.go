package qfixd

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
)

// The client/daemon protocol: newline-delimited JSON frames over TCP,
// one Request per line from the client, one Response per line back, each
// line at most frameconn.MaxFrame — the dist worker protocol's framing. Responses carry the
// request's ID and may arrive out of submission order: diagnose
// requests run concurrently (admission permitting) and each answers the
// moment it lands, while cheap ops (append, complain, ...) answer
// inline in the read loop. A client multiplexing requests over one
// connection matches responses to requests by ID.
//
// WireVersion is the protocol generation this package speaks; frames of
// any other version are refused.
const WireVersion = 1

// Ops.
const (
	OpPing       = "ping"
	OpCreate     = "create"
	OpAppend     = "append"
	OpComplain   = "complain"
	OpDiagnose   = "diagnose"
	OpCheckpoint = "checkpoint"
	OpStats      = "stats"
)

// Request is one client frame.
type Request struct {
	Version int    `json:"v"`
	ID      uint64 `json:"id"`
	Op      string `json:"op"`
	// Tenant names the histstore the op targets (all ops but ping; a
	// tenant-less stats request stats the service).
	Tenant string `json:"tenant,omitempty"`

	// create: schema and initial rows of the new tenant's checkpoint.
	Table string      `json:"table,omitempty"`
	Key   string      `json:"key,omitempty"`
	Attrs []string    `json:"attrs,omitempty"`
	Rows  [][]float64 `json:"rows,omitempty"`

	// append: SQL statements to append to the tenant's log, in order.
	SQL []string `json:"sql,omitempty"`

	// complain (stage for the next diagnosis) and diagnose (inline,
	// joined with whatever is staged).
	Complaints []core.Complaint `json:"complaints,omitempty"`

	// diagnose: engine options; nil means the CLI defaults, so a bare
	// diagnose answers byte-identically to a default `qfix` run.
	Options *DiagnoseOptions `json:"options,omitempty"`
}

// Response is one daemon frame, answering the Request with the same ID.
type Response struct {
	Version int    `json:"v"`
	ID      uint64 `json:"id"`
	// Err carries the failure; empty means success.
	Err string `json:"err,omitempty"`
	// Busy marks an Err as the admission controller's backpressure
	// (tenant queue full): retryable, not a fault in the request.
	Busy bool `json:"busy,omitempty"`

	// append/complain: statements appended / complaints now staged.
	N int `json:"n,omitempty"`

	// diagnose: the repair. Log is the full repaired history rendered
	// as canonical SQL — the byte-identity surface shared with the
	// qfix CLI (both render via Query.String on the same schema).
	Log      []string    `json:"log,omitempty"`
	Changed  []int       `json:"changed,omitempty"`
	Distance float64     `json:"distance,omitempty"`
	Resolved bool        `json:"resolved,omitempty"`
	Stats    *core.Stats `json:"stats,omitempty"`

	// stats.
	Tenants int          `json:"tenants,omitempty"`
	Tenant  *TenantStats `json:"tenant,omitempty"`
}

// DiagnoseOptions is the wire subset of core.Options a client may set.
// The zero value resolves to the qfix CLI's defaults (incremental, K=1,
// tuple and query slicing on, 60s per-solve limit), which is what makes
// a bare daemon diagnosis byte-identical to a default CLI run.
// Process-local machinery (scheduler pool, partition solver, caches,
// trace) is the daemon's to wire, never the client's.
type DiagnoseOptions struct {
	Algorithm      string `json:"algorithm,omitempty"` // "incremental" (default) | "basic"
	K              int    `json:"k,omitempty"`
	Parallel       int    `json:"parallel,omitempty"`
	Partition      int    `json:"partition,omitempty"`
	SolverParallel int    `json:"solver_parallel,omitempty"`
	NoTupleSlicing bool   `json:"no_tuple_slicing,omitempty"`
	NoQuerySlicing bool   `json:"no_query_slicing,omitempty"`
	AttrSlicing    bool   `json:"attr_slicing,omitempty"`
	TimeLimitMS    int64  `json:"time_limit_ms,omitempty"`
}

// resolve maps the wire options onto core.Options with CLI-identical
// defaults. A nil receiver is the all-defaults request.
func (o *DiagnoseOptions) resolve() core.Options {
	opt := core.Options{
		Algorithm:    core.Incremental,
		K:            1,
		TupleSlicing: true,
		QuerySlicing: true,
		TimeLimit:    60 * time.Second,
	}
	if o == nil {
		return opt
	}
	if o.Algorithm == "basic" {
		opt.Algorithm = core.Basic
	}
	if o.K > 0 {
		opt.K = o.K
	}
	// Widths are clamped to the daemon's own: a repair is the same at
	// any width, and a request asking for 1<<20 would get that many
	// goroutines.
	width := runtime.GOMAXPROCS(0)
	opt.Parallel = min(o.Parallel, width)
	opt.Partition = min(o.Partition, width)
	opt.SolverParallel = min(o.SolverParallel, width)
	opt.TupleSlicing = !o.NoTupleSlicing
	opt.QuerySlicing = !o.NoQuerySlicing
	opt.AttrSlicing = o.AttrSlicing
	if o.TimeLimitMS > 0 {
		opt.TimeLimit = time.Duration(o.TimeLimitMS) * time.Millisecond
	}
	return opt
}

// validate rejects frames this daemon generation cannot serve.
func (r *Request) validate() error {
	if r.Version != WireVersion {
		return fmt.Errorf("qfixd: protocol v%d not supported (this daemon speaks v%d)",
			r.Version, WireVersion)
	}
	if o := r.Options; o != nil && o.Algorithm != "" &&
		o.Algorithm != "basic" && o.Algorithm != "incremental" {
		return fmt.Errorf("qfixd: unknown algorithm %q", o.Algorithm)
	}
	return nil
}
