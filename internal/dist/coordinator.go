package dist

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/relation"
)

// Config tunes a Coordinator.
type Config struct {
	// JobTimeout bounds one dispatch attempt (dial + solve + result).
	// When the job carries a TotalTimeLimit, each attempt is further
	// bounded by an equal share of the remaining budget reserved across
	// the planned attempts plus the local fallback (attemptTimeout), so
	// a hung worker can't absorb the whole diagnosis budget — without
	// that cap no retry would ever run and the local fallback would
	// start broke. Zero picks DefaultJobTimeout.
	JobTimeout time.Duration
	// Mux is ignored: every connection Connect makes is multiplexed
	// (MuxTransport).
	//
	// Deprecated: ROADMAP 2(d) deletes the field.
	Mux bool
	// Logf, when set, receives one line per dispatch failure/fallback.
	Logf func(format string, args ...any)
}

// DefaultJobTimeout bounds a dispatch attempt when neither the job's
// Options nor the Config say otherwise.
const DefaultJobTimeout = 5 * time.Minute

// Coordinator distributes partition subproblems over a set of worker
// transports. Install wires a diagnosis's Options to a per-diagnosis
// Solver and the engine's partition scan ships every subproblem through
// it. Planning, merging, conflict detection, and replay verification
// all stay in the engine — the coordinator is purely a dispatch layer
// with retry and local fallback, so a diagnosis never loses an instance
// the local engine can solve. The engine's scheduler
// starts partitions largest-first (see core's planPartitions size
// estimate), so the coordinator ships the biggest MILPs to the fleet
// first and the critical path is not a huge partition stuck at the back
// of the queue; the per-partition results stream back over persistent
// connections as each solve lands.
type Coordinator struct {
	cfg        Config
	transports []Transport
	next       atomic.Uint64 // round-robin cursor
	nextJobID  atomic.Uint64
	remoteJobs atomic.Int64
	localJobs  atomic.Int64
}

// encMemo memoizes the wire encodings of one diagnosis's D0 and log:
// every partition job of a diagnosis carries the identical initial
// state and log, so they are serialized once, named by one body ID and
// shared read-only across jobs. A change to either re-encodes both under
// a new body ID. Keyed by identity plus cheap mutation witnesses
// (length, next ID); a memo is scoped to one diagnosis by construction
// (Solver/Diagnose hand each run a fresh one), which is what makes a
// single Coordinator safe to share across concurrent diagnoses of
// different tenants — there is no per-run reset of shared state to
// race on, and no cross-tenant eviction.
type encMemo struct {
	mu     sync.Mutex
	d0     *relation.Table // guarded by mu
	d0Len  int             // guarded by mu
	nextID int64           // guarded by mu
	table  *wireTable      // guarded by mu
	logPtr *query.Query    // guarded by mu
	logLen int             // guarded by mu
	log    []string        // guarded by mu
	err    error           // guarded by mu — why log could not be encoded
	body   uint64          // guarded by mu — ID of (table, log)
}

// NewCoordinator builds a coordinator over the given transports. With no
// transports every job solves locally (the degenerate case).
func NewCoordinator(cfg Config, transports ...Transport) *Coordinator {
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = DefaultJobTimeout
	}
	return &Coordinator{cfg: cfg, transports: transports}
}

// Connect builds a coordinator with one persistent multiplexed
// connection (DialMux) per worker address.
func Connect(cfg Config, workers ...string) *Coordinator {
	ts := make([]Transport, len(workers))
	for i, addr := range workers {
		ts[i] = DialMux(addr)
	}
	return NewCoordinator(cfg, ts...)
}

// Close releases every transport.
func (c *Coordinator) Close() error {
	var first error
	for _, t := range c.transports {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// RemoteJobs reports how many jobs were solved remotely since creation.
func (c *Coordinator) RemoteJobs() int { return int(c.remoteJobs.Load()) }

// LocalFallbacks reports how many jobs fell back to the local engine.
func (c *Coordinator) LocalFallbacks() int { return int(c.localJobs.Load()) }

// transportSlack is how much longer than the job's own solve budget a
// dispatch may wait on the wire before giving up on the fleet.
const transportSlack = 10 * time.Second

// Solver returns a per-diagnosis core.PartitionSolver over this
// coordinator: it shares the coordinator's transports, round-robin
// cursor, job IDs, and retry/fallback policy, but carries its own
// encoding memo. It is the coordinator's only solver: Install and
// Diagnose use it, and so do resident services (internal/qfixd) that
// run many concurrent diagnoses — of different tenants, hence different
// D0/log pairs — over one long-lived fleet: each diagnosis's partition
// jobs share that diagnosis's encodings without evicting or racing any
// other diagnosis's.
func (c *Coordinator) Solver() core.PartitionSolver {
	return &runSolver{c: c, enc: new(encMemo)}
}

// runSolver is one diagnosis's view of a shared Coordinator.
type runSolver struct {
	c   *Coordinator
	enc *encMemo
}

// SolvePartition implements core.PartitionSolver: encode the subproblem,
// offer it to workers round-robin with per-attempt timeouts, and fall
// back to the in-process engine when every attempt fails. Remote repairs
// are marked with Stats.RemoteJobs=1 so the engine's stats merge counts
// them.
//
// The job's Options.TotalTimeLimit bounds the whole of dispatch plus
// fallback, exactly as it bounds the in-process path: retries spend the
// same budget, not a fresh one each, and a fallback that starts with the
// budget exhausted returns the engine's "total-time-limit" outcome
// instead of solving on borrowed time.
func (r *runSolver) SolvePartition(sub core.Subproblem) (*core.Repair, error) {
	c := r.c
	// The engine hands each partition its own span via Options.Trace;
	// dispatch attempts and the local fallback hang under it so a traced
	// distributed run shows exactly where every partition's time went.
	sp := sub.Options.Trace
	var deadline time.Time
	if sub.Options.TotalTimeLimit > 0 {
		deadline = time.Now().Add(sub.Options.TotalTimeLimit)
	}
	if len(c.transports) > 0 {
		mDistJobs.Inc()
		job, err := r.enc.encodeJob(c.nextJobID.Add(1), sub)
		if err == nil {
			if rep, ok := c.dispatch(job, sub, deadline, sp); ok {
				return rep, nil
			}
		} else {
			c.logf("dist: job encode failed, solving locally: %v", err)
		}
		mDistFallbacks.Inc()
	}
	c.localJobs.Add(1)
	lsp := sp.Start("local")
	defer lsp.End()
	sub.Options.Trace = lsp // the fallback solve's own spans nest under it
	if !deadline.IsZero() {
		remain := time.Until(deadline)
		if remain <= 0 {
			return &core.Repair{Log: query.CloneLog(sub.Log),
				Stats: core.Stats{LastStatus: "total-time-limit", WorkerAddr: "local"}}, nil
		}
		sub.Options.TotalTimeLimit = remain
	}
	rep, err := sub.SolveLocal()
	if rep != nil {
		rep.Stats.WorkerAddr = "local"
	}
	return rep, err
}

// dispatch offers the job once to each worker, in round-robin order,
// within the job's deadline (zero = no budget, each attempt gets
// JobTimeout); sub is the subproblem the job encodes, whose own log a
// result's repair is rebuilt onto. ok=false means every attempt failed
// and the caller should solve locally.
func (c *Coordinator) dispatch(job *Job, sub core.Subproblem, deadline time.Time, sp *obs.Span) (*core.Repair, bool) {
	attempts := len(c.transports)
	// Advance the shared round-robin cursor once per job, then walk
	// consecutive transports, so retries always land on a different
	// worker than the one that just failed. The cursor is reduced
	// modulo the fleet size while still unsigned: a raw int conversion
	// goes negative when the uint64 counter wraps, and a negative
	// modulo index would panic.
	start := int((c.next.Add(1) - 1) % uint64(len(c.transports)))
	for a := 0; a < attempts; a++ {
		if a > 0 {
			mDistRetries.Inc()
		}
		t := c.transports[(start+a)%len(c.transports)]
		timeout := c.cfg.JobTimeout
		if !deadline.IsZero() {
			remain := time.Until(deadline)
			if remain <= -transportSlack/2 {
				break
			}
			timeout = attemptTimeout(c.cfg.JobTimeout, remain, attempts-a)
		}
		// Ship the attempt with its solve budget clamped to the attempt
		// window (minus the wire slack, floored at the window itself for
		// windows within one slack): the wire has no cancel frame, so
		// without the clamp a worker keeps solving — pinning one of its
		// MaxInflight slots — long after this coordinator timed out and
		// moved on. The shallow copy leaves the shared job (and its
		// D0/log slices, which it aliases) untouched for later attempts.
		budget := int64(timeout - transportSlack)
		if budget <= 0 {
			budget = int64(timeout)
		}
		attempt := *job
		if o := job.Options; o.TotalTimeLimitNS <= 0 || o.TotalTimeLimitNS > budget {
			o.TotalTimeLimitNS = budget
			attempt.Options = o
		}
		// The attempt TTL additionally lets the worker refuse the
		// attempt if it only DEQUEUES past the window (the budget above
		// bounds solve time from solve start, so it can't cover the
		// admission-queue wait, which the worker measures on its own
		// clock from frame arrival).
		attempt.AttemptTTLNS = int64(timeout)
		asp := sp.Start("attempt")
		asp.SetAttr("worker", t.Addr())
		asp.SetAttr("attempt", a+1)
		attemptStart := time.Now()
		// Arm the slow-job warning: half the attempt window gone with no
		// result yet is worth a line NOW, while the operator can still see
		// which worker is sitting on the job — not after the timeout has
		// already burned a retry share of the budget.
		warn := time.AfterFunc(timeout/2, func() {
			mDistSlowJobs.Inc()
			c.logf("dist: warn slow-job job=%d worker=%s attempt=%d/%d elapsed=%v budget_left=%s",
				job.ID, t.Addr(), a+1, attempts,
				time.Since(attemptStart).Round(time.Millisecond), budgetLeft(deadline))
		})
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		res, err := t.Do(ctx, &attempt)
		cancel()
		warn.Stop()
		wire := time.Since(attemptStart)
		if err != nil {
			asp.SetAttr("outcome", "transport-error")
			asp.End()
			c.logf("dist: warn retry job=%d worker=%s attempt=%d/%d elapsed=%v budget_left=%s err=%q",
				job.ID, t.Addr(), a+1, attempts, wire.Round(time.Millisecond),
				budgetLeft(deadline), err)
			continue
		}
		rep, err := repairOf(res, sub.Log, sub.Options.Candidates)
		if err != nil {
			// Version mismatch, a worker-side solve error, or an answer
			// that is not a repair of this job. A solve error would
			// hit the local engine too, but the local fallback keeps the
			// no-lost-instances guarantee cheap to state, so take it
			// rather than guessing.
			asp.SetAttr("outcome", "rejected")
			asp.End()
			c.logf("dist: warn retry job=%d worker=%s attempt=%d/%d elapsed=%v budget_left=%s rejected=%q",
				job.ID, t.Addr(), a+1, attempts, wire.Round(time.Millisecond),
				budgetLeft(deadline), err)
			continue
		}
		if !rep.Resolved {
			// An unresolved remote result is not trusted as final: the
			// worker may be degraded or capped (-max-timelimit) below
			// what the instance needs, and accepting it would lose an
			// instance the local engine can solve. Try elsewhere, then
			// re-solve locally; a genuinely unsolvable partition costs
			// one redundant local attempt under the same budget.
			asp.SetAttr("outcome", "unresolved")
			asp.End()
			c.logf("dist: warn retry job=%d worker=%s attempt=%d/%d elapsed=%v budget_left=%s unresolved=%s",
				job.ID, t.Addr(), a+1, attempts, wire.Round(time.Millisecond),
				budgetLeft(deadline), rep.Stats.LastStatus)
			continue
		}
		mDistWireSeconds.Observe(wire.Seconds())
		rep.Stats.RemoteJobs = 1
		rep.Stats.WorkerAddr = t.Addr()
		rep.Stats.DispatchAttempts = a + 1
		asp.SetAttr("outcome", rep.Stats.LastStatus)
		asp.End()
		c.remoteJobs.Add(1)
		return rep, true
	}
	c.logf("dist: job %d exhausted its worker attempts; solving locally", job.ID)
	return nil, false
}

// budgetLeft renders what remains of the job's total budget for the
// dispatch warnings ("none" when the job carries no budget).
func budgetLeft(deadline time.Time) string {
	if deadline.IsZero() {
		return "none"
	}
	return time.Until(deadline).Round(time.Millisecond).String()
}

// attemptTimeout bounds one dispatch attempt against the job's budget.
// The remaining budget is split into equal shares for this attempt,
// each later attempt, and a local-fallback reserve — so a worker that
// accepts the job and then hangs can neither starve the promised retry
// on a distinct worker nor leave the fallback broke, whatever the
// TotalTimeLimit. transportSlack rides on top for wire overhead (the
// worker enforces the solve budget itself); the result never exceeds
// JobTimeout, nor what is left of the budget plus slack. Budgets within
// a few transportSlacks are degenerate: the slack floor dominates and
// the reserve is best-effort. attemptsLeft below 1 cannot come from
// dispatch (it always has the current attempt left); it is clamped to 1
// defensively so the local-fallback reserve survives a miscounting
// caller rather than collapsing to zero.
func attemptTimeout(jobTimeout, remain time.Duration, attemptsLeft int) time.Duration {
	if attemptsLeft < 1 {
		attemptsLeft = 1
	}
	timeout := jobTimeout
	if share := remain/time.Duration(attemptsLeft+1) + transportSlack; share < timeout {
		timeout = share
	}
	if all := remain + transportSlack; all < timeout {
		timeout = all
	}
	return timeout
}

// encodeJob builds the wire job, memoizing the D0 and log encodings,
// their body ID (see encMemo) and the error of a log that cannot be
// encoded. The log prints over D0's schema, so a new D0 re-encodes both.
func (m *encMemo) encodeJob(id uint64, sub core.Subproblem) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var logPtr *query.Query
	if len(sub.Log) > 0 {
		logPtr = &sub.Log[0]
	}
	if m.d0 != sub.D0 || m.d0Len != sub.D0.Len() || m.nextID != sub.D0.NextID() ||
		m.logPtr != logPtr || m.logLen != len(sub.Log) {
		m.d0, m.d0Len, m.nextID = sub.D0, sub.D0.Len(), sub.D0.NextID()
		m.logPtr, m.logLen = logPtr, len(sub.Log)
		t := encodeTable(sub.D0)
		m.table, m.body = &t, bodyIDs.Add(1)
		m.log, m.err = encodeLog(sub.Log, sub.D0.Schema())
	}
	if m.err != nil {
		return nil, m.err
	}
	return &Job{
		Version:    WireVersion,
		ID:         id,
		Body:       m.body,
		D0:         m.table,
		Log:        m.log,
		Complaints: sub.Complaints,
		Options:    encodeOptions(sub.Options),
	}, nil
}

// Install points one diagnosis at this fleet: a per-run solver (Solver)
// becomes opt.PartitionSolver, so concurrent diagnoses on one shared
// coordinator never cross-pollute encoding memos, and Partition
// defaults to the worker count when unset so the dispatch pipeline is
// as wide as the fleet. It is the one wiring rule both entry points
// (Coordinator.Diagnose and qfixd) share.
func (c *Coordinator) Install(opt *core.Options) {
	if opt.Partition == 0 {
		opt.Partition = max(len(c.transports), 1)
	}
	opt.PartitionSolver = c.Solver()
}

// Diagnose runs a full distributed diagnosis: planning, merging and
// verification happen in-process via core.Diagnose, each partition
// dispatched through this coordinator (Install).
func (c *Coordinator) Diagnose(d0 *relation.Table, log []query.Query,
	complaints []core.Complaint, opt core.Options) (*core.Repair, error) {
	c.Install(&opt)
	return core.Diagnose(d0, log, complaints, opt)
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}
