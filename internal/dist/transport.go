package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
)

// Transport delivers one job to a solver and returns its result. A
// transport error (dial failure, link backing off, deadline, broken
// frame) means the worker's answer is unknown; the Coordinator responds by retrying on
// another worker and, ultimately, solving locally. Implementations must
// be safe for concurrent use: the engine dispatches partitions from
// multiple goroutines.
type Transport interface {
	Do(ctx context.Context, job *Job) (*Result, error)
	// Addr names the endpoint for logs and stats.
	Addr() string
	Close() error
}

// InProc is the in-process transport: jobs round-trip through the wire
// codec (so tests exercise exactly what the network path serializes) and
// solve on the local engine. It is the degenerate zero-worker case — a
// coordinator over only InProc transports is semantically identical to
// local partitioned diagnosis.
type InProc struct{}

// Do implements Transport. The context is honored exactly as the
// network path honors its connection deadline: an expired or canceled
// context refuses the job as a transport error, and a live deadline
// clamps the solve budget (solveJob) so an in-process attempt cannot
// outlive its dispatch share the way a hung connection would be cut
// off — previously InProc ignored ctx entirely, solving to completion
// past its attemptTimeout and voiding the coordinator's budget caps.
func (InProc) Do(ctx context.Context, job *Job) (*Result, error) {
	// A dead-on-arrival attempt is refused before the codec round trip,
	// mirroring the network path, which fails before marshaling a frame.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dist: job %d on inproc: %w", job.ID, err)
	}
	// Mirror the network path byte-for-byte: marshal, unmarshal, solve,
	// and marshal the result back.
	raw, err := json.Marshal(job)
	if err != nil {
		return nil, err
	}
	var decoded Job
	if err := json.Unmarshal(raw, &decoded); err != nil {
		return nil, err
	}
	res := solveJob(ctx, &decoded, decodeBody(&decoded), nil)
	rawRes, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	var out Result
	if err := json.Unmarshal(rawRes, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Addr implements Transport.
func (InProc) Addr() string { return "inproc" }

// Close implements Transport.
func (InProc) Close() error { return nil }

// resultVersion picks the version a result frame answers with: the
// job's own, so a sender of an older generation — whose job can only be
// rejected — can still decode the rejection. Only frames from the
// future are capped at our own version (we cannot speak a dialect we
// don't know).
func resultVersion(jobVersion int) int {
	if jobVersion > WireVersion {
		return WireVersion
	}
	return jobVersion
}

// clampBudget bounds the subproblem's total solve budget by the
// context deadline (for the server path, the job's attempt TTL
// anchored at frame arrival; for InProc, the dispatch attempt's own
// context), so a solve honors its dispatch share exactly as a remote
// worker is cut off by its connection deadline — however long the job
// queued first. false means the attempt is already dead and must be
// refused without solving.
func clampBudget(ctx context.Context, o *core.Options) bool {
	if ctx.Err() != nil {
		return false
	}
	dl, ok := ctx.Deadline()
	if !ok {
		return true
	}
	remain := time.Until(dl)
	if remain <= 0 {
		return false
	}
	if o.TotalTimeLimit <= 0 || o.TotalTimeLimit > remain {
		o.TotalTimeLimit = remain
	}
	return true
}

// solveJob is the worker-side job handler shared by the in-process
// transport and the network server: reject version mismatches and
// bodies that failed to decode, then solve on the local engine bounded
// by ctx and encode. b is the job's body, decoded from the frame or
// held by its connection; a job that named a held body instead of
// carrying it reports that through Stats.WorkerCacheHits. impact, when
// non-nil, is the worker's impact cache: jobs over one held body hand
// the engine the same statements, so all but the first skip the
// FullImpact pass of planning. InProc passes none, so it remains the
// engine-equivalent reference path.
func solveJob(ctx context.Context, job *Job, b *body, impact *core.ImpactCache) *Result {
	v := resultVersion(job.Version)
	if err := checkVersion("job", job.Version); err != nil {
		return &Result{Version: v, ID: job.ID, Err: err.Error()}
	}
	if b.err != nil {
		return &Result{Version: v, ID: job.ID, Err: b.err.Error()}
	}
	sub := b.subproblem(job)
	sub.Options.ImpactCache = impact
	// A job that sat in the admission queue past its attempt window (or
	// whose context died) is refused; a live one solves on exactly what
	// is left of its attempt share, however long it queued.
	if !clampBudget(ctx, &sub.Options) {
		return &Result{Version: v, ID: job.ID, Err: budgetDeadErr(ctx).Error()}
	}
	rep, err := sub.SolveLocal()
	if err == nil && job.D0 == nil {
		rep.Stats.WorkerCacheHits = 1
	}
	res, encErr := EncodeResult(job.ID, rep, err)
	if encErr != nil {
		return &Result{Version: v, ID: job.ID, Err: encErr.Error()}
	}
	res.Version = v
	return res
}

// budgetDeadErr names why clampBudget refused an attempt: the caller's
// context error when it has one, the generic deadline error when only
// the job's advisory deadline had passed.
func budgetDeadErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return context.DeadlineExceeded
}

var _ Transport = InProc{}
