package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"repro/internal/core"
)

// Transport delivers one job to a solver and returns its result. A
// transport error (dial failure, deadline, broken frame) means the
// worker's answer is unknown; the Coordinator responds by retrying on
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
	// mirroring the network path, which fails the dial before encoding.
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
	res := solveJob(ctx, &decoded, nil)
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
// refused without solving. o may be nil for a pure liveness check
// before the job is decoded.
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
	if o != nil && (o.TotalTimeLimit <= 0 || o.TotalTimeLimit > remain) {
		o.TotalTimeLimit = remain
	}
	return true
}

// solveJob is the worker-side job handler shared by the in-process
// transport and the network server: decode (rejecting version
// mismatches), solve on the local engine bounded by ctx, encode. With a
// cache, jobs carrying digests reuse the decoded D0/log of earlier
// same-digest jobs — skipping the decode — and solve with the cache's
// impact closure installed — skipping the FullImpact pass of planning;
// the reuse is reported back through Stats.WorkerCacheHits. InProc
// stays cacheless so it remains the engine-equivalent reference path.
func solveJob(ctx context.Context, job *Job, wc *workerCache) *Result {
	v := resultVersion(job.Version)
	// Dead-on-arrival refusals come before the expensive decode: a job
	// that sat in the admission queue past its attempt window (or whose
	// context died) is refused for free, not after burning the D0/log
	// decode inside its solve slot.
	if !clampBudget(ctx, nil) {
		return &Result{Version: v, ID: job.ID, Err: budgetDeadErr(ctx).Error()}
	}
	key := wcKey{d0: job.D0Digest, log: job.LogDigest}
	cached := false
	var sub core.Subproblem
	if wc != nil && key.d0 != 0 && key.log != 0 && job.Version == WireVersion {
		if d0, lg, ok := wc.lookup(key, len(job.D0.Rows), len(job.Log)); ok {
			sub = core.Subproblem{D0: d0, Log: lg,
				Complaints: job.Complaints, Options: decodeOptions(job.Options)}
			cached = true
			mWorkerCacheHits.Inc()
		}
	}
	if !cached {
		var err error
		sub, err = DecodeJob(job)
		if err != nil {
			return &Result{Version: v, ID: job.ID, Err: err.Error()}
		}
		if wc != nil && key.d0 != 0 && key.log != 0 {
			mWorkerCacheMisses.Inc()
			wc.store(key, sub.D0, sub.Log)
		}
	}
	if wc != nil && sub.Options.ImpactCache == nil {
		sub.Options.ImpactCache = wc.impact
	}
	// Re-check now that decoding is done (the window may have closed
	// during a large decode) and clamp the solve budget to what is
	// left, so a live job solves on exactly its attempt share however
	// long it queued.
	if !clampBudget(ctx, &sub.Options) {
		return &Result{Version: v, ID: job.ID, Err: budgetDeadErr(ctx).Error()}
	}
	rep, err := sub.SolveLocal()
	if err == nil && cached {
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

// TCPTransport ships jobs to one worker address, one connection per job,
// framed as newline-delimited JSON. Per-job deadlines come from the
// context; a worker that dies mid-solve surfaces as a read error.
type TCPTransport struct {
	addr   string
	dialer net.Dialer
}

// Dial returns a transport for the worker at addr ("host:port"). No
// connection is made until the first job.
func Dial(addr string) *TCPTransport {
	return &TCPTransport{addr: addr}
}

// Addr implements Transport.
func (t *TCPTransport) Addr() string { return t.addr }

// Close implements Transport. Connections are per-job, so there is
// nothing to tear down.
func (t *TCPTransport) Close() error { return nil }

// Do implements Transport: one dial-solve-read round trip.
func (t *TCPTransport) Do(ctx context.Context, job *Job) (*Result, error) {
	conn, err := t.dialer.DialContext(ctx, "tcp", t.addr)
	if err != nil {
		return nil, fmt.Errorf("dist: dial %s: %w", t.addr, err)
	}
	defer conn.Close()
	if dl, ok := ctx.Deadline(); ok {
		if err := conn.SetDeadline(dl); err != nil {
			return nil, err
		}
	}
	// Close the connection when the context is canceled so a hung worker
	// cannot outlive its job budget.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-done:
		}
	}()

	if err := json.NewEncoder(conn).Encode(job); err != nil {
		return nil, fmt.Errorf("dist: send job to %s: %w", t.addr, err)
	}
	var res Result
	if err := json.NewDecoder(conn).Decode(&res); err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, fmt.Errorf("dist: job %d on %s: %w", job.ID, t.addr, ctxErr)
		}
		return nil, fmt.Errorf("dist: read result from %s: %w", t.addr, err)
	}
	return &res, nil
}

var (
	_ Transport = InProc{}
	_ Transport = (*TCPTransport)(nil)
)
