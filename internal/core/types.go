// Package core implements QFix itself: given an initial database state, a
// log of update queries, and a set of complaints about the final state,
// it finds the minimal-distance parameter repair of the log that resolves
// every complaint (paper Definition 5, "optimal diagnosis").
//
// The package wires together the paper's algorithms: the basic MILP
// formulation (Algorithm 1, §4), the slicing optimizations (§5.1–5.3),
// and the incremental repair Inc_k (Algorithm 3, §5.4) with the
// tuple-slicing refinement step (§5.1 step 2).
package core

import (
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/sched"
)

// Complaint identifies one tuple of the final state together with its
// correct value assignment (Definition 4): the tuple with ID TupleID
// should equal Values (Exists=true), or should have been deleted
// (Exists=false).
type Complaint struct {
	TupleID int64
	Exists  bool
	Values  []float64
}

// ComplaintsFromDiff derives the complete complaint set between the dirty
// final state and the true final state (the experimental setup of §7.1:
// "perform a tuple-wise comparison between the resulting database states
// to generate a true complaint set").
func ComplaintsFromDiff(dirty, truth *relation.Table, eps float64) []Complaint {
	var out []Complaint
	for _, d := range relation.DiffTables(dirty, truth, eps) {
		switch {
		case d.After == nil:
			out = append(out, Complaint{TupleID: d.ID, Exists: false})
		default:
			out = append(out, Complaint{TupleID: d.ID, Exists: true,
				Values: append([]float64(nil), d.After.Values...)})
		}
	}
	return out
}

// Algorithm selects the diagnosis strategy.
type Algorithm int

// Strategies.
const (
	// Basic encodes the whole log in one MILP (Algorithm 1).
	Basic Algorithm = iota
	// Incremental parameterizes K consecutive queries at a time, newest
	// first, and stops at the first verified repair (Algorithm 3).
	Incremental
)

// String names the algorithm.
func (a Algorithm) String() string {
	if a == Incremental {
		return "incremental"
	}
	return "basic"
}

// Options selects the algorithm and optimizations.
type Options struct {
	Algorithm Algorithm
	// K is the incremental batch size (default 1; the paper finds k>1
	// impractical, §7.2).
	K int
	// Partition > 0 enables partition-parallel diagnosis with that many
	// concurrent partition workers: planning splits the complaint set
	// into connected components of the complaint–query interaction graph
	// (two complaints are connected iff their relevant-query candidate
	// sets, derived from FullImpact, intersect), solves each component as
	// an independent sub-diagnosis on a shared worker pool, and merges
	// the per-partition repairs. The merged repair is re-verified against
	// the full complaint set; on cross-partition interference or
	// conflicting parameter assignments the engine falls back to a joint
	// solve. A resolved partitioned diagnosis is therefore always a
	// replay-verified repair, and it matches the unpartitioned outcome
	// whenever the joint path can solve the instance at all — but
	// partitioning can resolve strictly more: each partition reduces to
	// a single-corruption subproblem, so Incremental with K=1 repairs
	// multi-cluster corruptions the joint scan cannot. Partition = -1
	// sizes the pool adaptively from runtime.GOMAXPROCS. Extension
	// beyond the paper (its closing "additional methods of scaling the
	// constraint analysis" direction).
	Partition int

	// Scheduler, when non-nil, runs the engine's partition scan on this
	// resident shared worker pool; when nil the scan runs on a private
	// pool of its own width (sched.OnPool either way). Partition still
	// bounds the scan's share of a shared pool; the pool's own size
	// bounds the process total, which is what a resident multi-tenant
	// service (internal/qfixd) needs when many diagnoses run
	// concurrently. Process-local: never serialized, and partition
	// subproblems shipped to workers solve without it. The chosen repair
	// is identical with or without a Scheduler (results are adjudicated
	// in submission order either way).
	Scheduler *sched.Pool

	// PartitionSolver, when non-nil, dispatches each partition
	// subproblem instead of the in-process engine — the hook behind
	// internal/dist's coordinator, which ships subproblems to remote
	// workers. Implementations must return a repair equivalent to
	// Subproblem.SolveLocal (the distributed coordinator guarantees this
	// by falling back to the local engine when a worker fails). Ignored
	// unless Partition enables partitioning.
	PartitionSolver PartitionSolver

	// ImpactCache, when non-nil, caches FullImpact closures across
	// diagnoses keyed by the log's statements themselves
	// (impactcache.go). Repeat diagnoses of the same statements reuse the
	// closure outright; diagnoses of a grown log extend the cached
	// prefix incrementally (ExtendFullImpact). The cache holds on to the
	// log slice it is given, so do not overwrite its elements afterwards
	// (appending is fine). Process-local and never serialized:
	// histstore.Store installs one per store, and dist workers keep one
	// per process so repeat jobs skip re-planning.
	ImpactCache *ImpactCache

	// TupleSlicing encodes only complaint tuples (§5.1) and enables the
	// refinement step unless SkipRefine is set.
	TupleSlicing bool
	// QuerySlicing restricts repair candidates to queries whose full
	// impact intersects the complaint attributes (§5.2).
	QuerySlicing bool
	// AttrSlicing encodes only attributes reachable from relevant
	// queries (§5.3).
	AttrSlicing bool
	// SingleCorruption strengthens query slicing to candidates whose
	// full impact covers every complaint attribute (§5.2's special case).
	SingleCorruption bool
	// SkipRefine disables the §5.1 step-2 refinement MILP.
	SkipRefine bool

	// Candidates, when non-nil, overrides the repair-candidate set with
	// explicit log indices (used by experiments that fix the
	// parameterized query, e.g. Figure 4's single-parameterization
	// series). Query slicing still intersects with it.
	Candidates []int

	// TimeLimit bounds each MILP solve (the paper uses a 1000-second
	// CPLEX limit; default here 60s).
	TimeLimit time.Duration
	// TotalTimeLimit bounds the whole diagnosis across incremental
	// batches (0 = none).
	TotalTimeLimit time.Duration
	// MaxNodes bounds branch-and-bound nodes per solve (0 = default).
	MaxNodes int

	// SolverParallel explores branch-and-bound nodes of each MILP with
	// this many concurrent LP workers (0 or 1 = sequential, -1 = one per
	// CPU). Independent of Partition, which runs whole sub-diagnoses
	// concurrently; this parallelizes inside a single solve. The search
	// is speculative with sequential semantics (milp.Options.Parallel):
	// repairs and solver stats are byte-identical at any setting.
	SolverParallel int

	// Trace, when non-nil, is the parent span the diagnosis hangs its
	// phase spans under (internal/obs): replay, plan (with the impact
	// closure), per-batch encode/solve, per-partition subtrees with
	// queue waits, MILP presolve and node batches, and the merge. Nil
	// (the default) disables tracing at near-zero cost — every span
	// operation is a nil no-op. Opaque to the wire protocol: subproblems
	// shipped to remote workers solve untraced, and the coordinator
	// records their dispatch/wire segments client-side instead.
	Trace *obs.Span
}

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = 1
	}
	if o.TimeLimit <= 0 {
		o.TimeLimit = 60 * time.Second
	}
	if o.Partition < 0 {
		o.Partition = runtime.GOMAXPROCS(0)
	}
	if o.SolverParallel < 0 {
		o.SolverParallel = runtime.GOMAXPROCS(0)
	}
	return o
}

// Stats reports how a diagnosis went.
type Stats struct {
	// Encode aggregates encoder sizes across every attempted batch.
	Rows, Vars, Binaries int
	// BatchesTried counts encode+solve attempts (1 for basic).
	BatchesTried int
	// RelevantQueries is the candidate set size after query slicing
	// (len(log) when slicing is off).
	RelevantQueries int
	// Partitions is how many independent complaint components the
	// partition planner found (0 when partitioning is disabled, 1 when
	// the interaction graph is fully connected and the engine fell
	// through to the joint path).
	Partitions int
	// PartitionFallback tells whether partition merging hit a conflict
	// or interference and re-solved jointly.
	PartitionFallback bool
	// PlanPasses counts full planning passes (log replay plus the
	// FullImpact closure). Partition subproblems solved in-process adopt
	// the coordinator's plan instead of re-planning, so a partitioned
	// diagnosis reports 1; remote workers plan once per shipped job.
	PlanPasses int
	// RemoteJobs counts partition subproblems solved by a remote worker
	// (via Options.PartitionSolver / internal/dist). Jobs that fell back
	// to the local engine are not counted.
	RemoteJobs int
	// StreamedResults counts the subset of RemoteJobs whose result
	// streamed back over a persistent multiplexed worker connection
	// (dist.Config.Mux) — written by the worker the moment the solve
	// landed rather than over a per-job dialed connection.
	StreamedResults int
	// ImpactCacheHits counts planning passes that reused a cached
	// FullImpact closure (Options.ImpactCache) instead of computing one
	// from scratch — exact reuse and prefix extension both count. On the distributed path this aggregates worker-side hits
	// too (each worker diagnosis plans with the worker's process
	// cache), so a cold client run against a warm fleet reports them —
	// distinct from WorkerCacheHits, which counts body reuse.
	ImpactCacheHits int
	// ImpactCacheExtends counts the subset of hits that found a proper
	// prefix and ran the incremental ExtendFullImpact update.
	ImpactCacheExtends int
	// WorkerCacheHits counts remote jobs whose connection already held
	// their body (D0 and log), so the job named it instead of carrying it
	// and the worker reused its decode.
	WorkerCacheHits int
	// ImpactTime is the wall clock spent obtaining the FullImpact
	// closure (cached, extended, or computed), part of planning.
	ImpactTime time.Duration
	// Nodes and LPIters total across solves.
	Nodes, LPIters int
	// Refactorizations totals sparse-LU basis rebuilds across solves
	// (simplex/factor.go); PresolvedRows totals constraint rows dropped
	// by the MILP root presolve (milp/presolve.go).
	Refactorizations int
	PresolvedRows    int
	// LPNumFails and LPIterLimits total the branch-and-bound nodes whose
	// LP relaxation ended in a numerical failure or at the LP iteration
	// limit (milp.Result); such a node's subtree goes unexplored, so
	// either being nonzero says why a solve stopped at "limit".
	LPNumFails   int
	LPIterLimits int
	// NodeLimitStops and TimeLimitStops count the solves that stopped on
	// the node limit (Options.MaxNodes) and on the solve time limit
	// (Options.TimeLimit, clamped to what TotalTimeLimit leaves).
	NodeLimitStops int
	TimeLimitStops int
	// PlanTime, EncodeTime, SolveTime, VerifyTime, and MergeTime split
	// the wall clock by pipeline phase. PlanTime covers the log replay,
	// the FullImpact closure (ImpactTime is the subset spent there), and
	// slicing; VerifyTime covers the verification replay of every
	// candidate repair and its diff against the dirty final state
	// (including the merged log of a partitioned diagnosis); MergeTime
	// covers stitching partition repairs and re-solving conflicts. All
	// five are derived from the same instrumentation points as the trace
	// spans (Options.Trace), so the CLI, bench, and wire report one
	// consistent truth.
	PlanTime   time.Duration
	EncodeTime time.Duration
	SolveTime  time.Duration
	VerifyTime time.Duration
	MergeTime  time.Duration
	// Replays counts full-table replays of a log from D0: the planning
	// replay plus one verification replay per candidate repair (each
	// solved batch, each refinement round's re-solve, the merged log of a
	// partitioned diagnosis). Encoding replays only the tuple slice and
	// is not counted. Deterministic for the sequential scans; on the
	// distributed path it aggregates the workers' replays too.
	Replays int
	// PartitionStats breaks a partitioned diagnosis down per partition,
	// in plan (index) order; empty when partitioning found fewer than
	// two components. Conflict re-solves append additional entries.
	// Coordinator-level only: never merged upward from sub-diagnoses.
	PartitionStats []PartitionStat
	// WorkerAddr and DispatchAttempts are stamped by the distributed
	// coordinator onto each partition repair's Stats: the address of the
	// worker that solved the job ("local" after fallback) and how many
	// dispatch attempts it took. Per-job fields — read into
	// PartitionStats during collection, never merged into totals.
	WorkerAddr       string
	DispatchAttempts int
	// Refined tells whether the step-2 refinement ran.
	Refined bool
	// LastStatus is the MILP status of the final (successful or last
	// attempted) solve.
	LastStatus string
}

// PartitionStat is one partition's slice of a partitioned diagnosis.
type PartitionStat struct {
	// Index is the partition's plan-order index.
	Index int
	// Complaints and Candidates size the subproblem.
	Complaints int
	Candidates int
	// QueueWait is how long the partition sat scheduled before a worker
	// slot started it; Solve is the wall clock of the solve itself
	// (including wire time on the distributed path).
	QueueWait time.Duration
	Solve     time.Duration
	// Remote tells whether a remote worker solved the partition; Worker
	// is its address ("local" when the coordinator fell back) and
	// Attempts the dispatch attempts spent (0 on the purely local path).
	Remote   bool
	Worker   string
	Attempts int
	// Nodes and Status summarize the partition's solve.
	Nodes  int
	Status string
}

// Repair is a log repair Q* (Definition 5) plus bookkeeping.
type Repair struct {
	// Log is the repaired query log, structurally identical to the input.
	Log []query.Query
	// Changed lists indices of queries whose parameters moved.
	Changed []int
	// Rewritten lists, ascending, the indices of Log's statements the
	// diagnosis built itself (a superset of Changed: a parameterized
	// query can solve back to its old values); every other statement is
	// a copy of the input log's, so whoever holds a rendering of the
	// input can reuse it there.
	Rewritten []int
	// Distance is the Manhattan distance d(Q, Q*) to the original log.
	Distance float64
	// Resolved reports that replaying Log from D0 satisfies every
	// complaint (verified by execution, not just by the MILP).
	Resolved bool
	Stats    Stats
}

// Subproblem is one partition of a diagnosis, packaged so it can be
// solved anywhere: the full initial state and log (replay verification
// needs both), the partition's complaint subset, and sub-Options with
// the repair candidates pinned to the partition's candidate set and
// partitioning disabled. A Subproblem is self-contained —
// solving it requires nothing from the coordinating diagnosis.
type Subproblem struct {
	D0         *relation.Table
	Log        []query.Query
	Complaints []Complaint
	Options    Options
}

// SolveLocal runs the subproblem on the in-process engine. It is the
// reference semantics every PartitionSolver must match, and the fallback
// path distributed solvers use when a worker fails.
func (s Subproblem) SolveLocal() (*Repair, error) {
	return Diagnose(s.D0, s.Log, s.Complaints, s.Options)
}

// PartitionSolver solves partition subproblems on behalf of the engine.
// The distributed coordinator in internal/dist implements it by shipping
// jobs to workers over the wire protocol; tests implement it to inject
// faults. Implementations are called concurrently (one goroutine per
// partition, bounded by Options.Partition) and must be safe for
// concurrent use.
type PartitionSolver interface {
	SolvePartition(sub Subproblem) (*Repair, error)
}
