package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/relation"
)

// Transport delivers one solve to a solver and returns its answer. A
// transport error (dial failure, link backing off, deadline, broken
// frame) means the answer is unknown; the Coordinator responds by
// retrying on another worker and, ultimately, declining the job.
// Implementations must be safe for concurrent use: the engine
// dispatches partitions from multiple goroutines.
type Transport interface {
	Do(ctx context.Context, job *Job) (*Result, error)
	// Addr names the endpoint for logs and stats.
	Addr() string
	Close() error
}

// Config tunes a Coordinator.
type Config struct {
	// JobTimeout bounds one dispatch attempt (dial + solve + answer).
	// When the job carries a TotalTimeLimit, each attempt is further
	// bounded by an equal share of what is left of it, reserved across
	// the planned attempts plus the local fallback (attemptTimeout), so
	// a hung worker can neither absorb the whole budget nor leave the
	// fallback broke. Zero picks defaultJobTimeout.
	JobTimeout time.Duration
	// Mux is ignored: every connection Connect makes is multiplexed.
	// Kept for benchmark/; ROADMAP 2(d) deletes.
	Mux bool
	// Logf, when set, receives one line per dispatch failure/fallback.
	Logf func(format string, args ...any)
}

// defaultJobTimeout bounds a dispatch attempt when neither the job's
// Options nor the Config say otherwise.
const defaultJobTimeout = 5 * time.Minute

// Coordinator distributes partition subproblems over a set of worker
// transports. Install wires a diagnosis's Options to a per-diagnosis
// Solver, through which the engine's partition scan ships every
// subproblem. Planning, merging, conflict detection and replay
// verification stay in the engine: the coordinator only dispatches,
// with retry, and declines (core.ErrDeclined) what no worker answered.
// The engine starts partitions largest-first, so the biggest MILPs
// reach the fleet first.
type Coordinator struct {
	cfg        Config
	transports []Transport
	next       atomic.Uint64 // round-robin cursor
	nextJobID  atomic.Uint64
	remoteJobs atomic.Int64
	localJobs  atomic.Int64
}

// encMemo memoizes the wire encodings of one diagnosis's D0 and log:
// every partition job of a diagnosis carries the same body, so it is
// serialized once, named by one body ID and shared read-only across
// jobs. A change to either re-encodes both under a new ID. Keyed by
// identity plus cheap mutation witnesses (length, next ID). A memo
// belongs to one diagnosis (Solver makes a fresh one), which is what
// makes one Coordinator safe to share across concurrent diagnoses.
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
// transports every job solves locally.
func NewCoordinator(cfg Config, transports ...Transport) *Coordinator {
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = defaultJobTimeout
	}
	return &Coordinator{cfg: cfg, transports: transports}
}

// Connect builds a coordinator with one Client (DialMux) per worker
// address.
func Connect(cfg Config, workers ...string) *Coordinator {
	ts := make([]Transport, len(workers))
	for i, addr := range workers {
		ts[i] = DialMux(addr)
	}
	return NewCoordinator(cfg, ts...)
}

// Close releases every transport.
func (c *Coordinator) Close() error {
	var errs []error
	for _, t := range c.transports {
		errs = append(errs, t.Close())
	}
	return errors.Join(errs...)
}

// RemoteJobs reports how many jobs were solved remotely since creation.
func (c *Coordinator) RemoteJobs() int { return int(c.remoteJobs.Load()) }

// LocalFallbacks reports how many jobs were declined to the local engine.
func (c *Coordinator) LocalFallbacks() int { return int(c.localJobs.Load()) }

// transportSlack is how much longer than the job's own solve budget a
// dispatch may wait on the wire before giving up on the fleet.
const transportSlack = 10 * time.Second

// Solver returns a per-diagnosis core.PartitionSolver over this
// coordinator: it shares the transports, round-robin cursor, job IDs
// and retry policy, but has its own encoding memo, so concurrent
// diagnoses of different tenants (qfixd) never evict or race each
// other's encodings.
func (c *Coordinator) Solver() core.PartitionSolver {
	return &runSolver{c: c, enc: new(encMemo)}
}

// runSolver is one diagnosis's view of a shared Coordinator.
type runSolver struct {
	c   *Coordinator
	enc *encMemo
}

// SolvePartition implements core.PartitionSolver: encode the subproblem
// and offer it to workers round-robin with per-attempt timeouts. Remote
// repairs are marked with Stats.RemoteJobs=1 so the engine's stats merge
// counts them. A job no worker answered, or one that cannot be encoded,
// is declined (core.ErrDeclined): the engine solves it on its own plan
// within what is left of the job's TotalTimeLimit, which bounds
// dispatch and fallback together.
func (r *runSolver) SolvePartition(sub core.Subproblem) (*core.Repair, error) {
	c := r.c
	if len(c.transports) > 0 {
		mDistJobs.Inc()
		job, err := r.enc.encodeJob(c.nextJobID.Add(1), sub)
		if err == nil {
			var deadline time.Time
			if sub.Options.TotalTimeLimit > 0 {
				deadline = time.Now().Add(sub.Options.TotalTimeLimit)
			}
			// Attempts hang under the partition's span.
			if rep, ok := c.dispatch(job, sub, deadline, sub.Options.Trace); ok {
				return rep, nil
			}
		} else {
			c.logf("dist: job encode failed, solving locally: %v", err)
		}
		mDistFallbacks.Inc()
	}
	c.localJobs.Add(1)
	return nil, core.ErrDeclined
}

// dispatch offers the job once to each worker, in round-robin order,
// within the job's deadline (zero: no budget, each attempt gets
// JobTimeout); sub is the subproblem the job encodes, whose own log an
// answer's repair is rebuilt onto. ok=false means every attempt failed
// and the caller should solve locally.
func (c *Coordinator) dispatch(job *Job, sub core.Subproblem, deadline time.Time, sp *obs.Span) (*core.Repair, bool) {
	attempts := len(c.transports)
	// One cursor step per job, then consecutive transports, so a retry
	// never lands on the worker that just failed. The cursor is reduced
	// while unsigned: a wrapped counter must not index negatively.
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
		// The wire has no cancel frame, so the attempt's solve budget is
		// clamped to its window (less the wire slack, but never below a
		// window within one slack): otherwise a worker keeps solving,
		// pinning a slot, long after this attempt gave up. The attempt
		// TTL also lets the worker refuse a job it only dequeues past
		// the window. The copy leaves the shared job untouched.
		budget := timeout - transportSlack
		if budget <= 0 {
			budget = timeout
		}
		attempt := *job
		if ms := ceilMS(budget); attempt.TotalTimeLimitMS <= 0 || attempt.TotalTimeLimitMS > ms {
			attempt.TotalTimeLimitMS = ms
		}
		attempt.AttemptTTLNS = int64(timeout)
		asp := sp.Start("attempt")
		asp.SetAttr("worker", t.Addr())
		asp.SetAttr("attempt", a+1)
		attemptStart := time.Now()
		// Half the window gone with no answer is worth a line now, while
		// the operator can still see which worker sits on the job.
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
		retry := func(outcome, why string) {
			asp.SetAttr("outcome", outcome)
			asp.End()
			c.logf("dist: warn retry job=%d worker=%s attempt=%d/%d elapsed=%v budget_left=%s %s",
				job.ID, t.Addr(), a+1, attempts, wire.Round(time.Millisecond), budgetLeft(deadline), why)
		}
		if err != nil {
			retry("transport-error", fmt.Sprintf("err=%q", err))
			continue
		}
		rep, err := repairOf(res, sub.Log, sub.Options.Candidates)
		if err != nil {
			// Version mismatch, a worker-side error, or an answer that is
			// not a repair of this job: the local fallback keeps the
			// no-lost-instances guarantee cheap to state.
			retry("rejected", fmt.Sprintf("rejected=%q", err))
			continue
		}
		if !rep.Resolved {
			// Not trusted as final: the worker may be degraded or capped
			// (-max-timelimit) below what the instance needs. A truly
			// unsolvable partition costs one redundant local attempt.
			retry("unresolved", "unresolved="+rep.Stats.LastStatus)
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

// attemptTimeout bounds one dispatch attempt against the job's budget:
// what remains is split into equal shares for this attempt, each later
// one and a local-fallback reserve, plus transportSlack for the wire,
// and never more than JobTimeout nor what remains plus slack. Budgets
// within a few slacks are degenerate: the slack dominates and the
// reserve is best-effort. attemptsLeft below 1 is taken as 1, so the
// reserve survives a miscounting caller.
func attemptTimeout(jobTimeout, remain time.Duration, attemptsLeft int) time.Duration {
	attemptsLeft = max(attemptsLeft, 1)
	share := remain/time.Duration(attemptsLeft+1) + transportSlack
	return min(jobTimeout, share, remain+transportSlack)
}

// encodeJob builds the job, memoizing the D0 and log encodings, their
// body ID and the error of a log that cannot be encoded. The log prints
// over D0's schema, so a new D0 re-encodes both.
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
		m.table, m.body = encodeTable(sub.D0), bodyIDs.Add(1)
		m.log, m.err = encodeLog(sub.Log, sub.D0.Schema())
	}
	if m.err != nil {
		return nil, m.err
	}
	return newSolve(id, m.body, m.table, m.log, sub), nil
}

// Install points one diagnosis at this fleet: a per-run Solver becomes
// opt.PartitionSolver, and Partition defaults to the worker count so
// the dispatch pipeline is as wide as the fleet. It is the one wiring
// rule Coordinator.Diagnose and qfixd share.
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
