// Package qfix diagnoses and repairs data errors through query histories,
// reproducing "QFix: Diagnosing Errors through Query Histories" (Wang,
// Meliou, Wu — SIGMOD 2017).
//
// Given an initial database state D0, a log Q of UPDATE/INSERT/DELETE
// statements with Q(D0) = Dn, and a set of complaints identifying wrong
// tuples in Dn, Diagnose finds the minimal parameter change to the log
// (a log repair Q*) whose replay resolves every complaint. The search is
// encoded as a mixed-integer linear program and solved by the pure-Go
// branch-and-bound solver in internal/milp.
//
// Quick start:
//
//	sch, _ := qfix.NewSchema("Taxes", []string{"income", "owed", "pay"}, "")
//	d0 := qfix.NewTable(sch)
//	d0.MustInsert(86000, 21500, 64500)
//	log, _ := qfix.ParseLog(sch, `
//	    UPDATE Taxes SET owed = income * 0.3 WHERE income >= 85700;
//	    UPDATE Taxes SET pay = income - owed`)
//	complaints := []qfix.Complaint{{TupleID: 1, Exists: true,
//	    Values: []float64{86000, 21500, 64500}}}
//	rep, _ := qfix.Diagnose(d0, log, complaints, qfix.Options{
//	    Algorithm: qfix.Incremental, TupleSlicing: true})
//	for _, q := range rep.Log {
//	    fmt.Println(q.String(sch))
//	}
//
// Diagnosis is organized as a plan/solve engine. Planning computes the
// paper's slicing sets (§5.1–5.3) and, with Options.Partition set,
// splits the complaint set into independent subproblems: two complaints
// belong to the same partition iff their relevant-query candidate sets
// (derived from the full-impact analysis of Definition 7) intersect.
// Solving runs each partition concurrently on the scan's own goroutines
// (Options.Partition of them) and merges the per-partition repairs;
// Algorithm 3's incremental batch scan itself runs newest-first, one
// batch at a time, and Basic is that scan with one batch holding every
// candidate. Partitioned diagnosis always returns a replay-verified
// repair and can resolve strictly more instances than the joint path
// (see core.Options for the exact guarantees).
//
// Diagnosis also scales past one process: internal/dist's Coordinator
// (dist.Connect over cmd/qfix-worker addresses, then Install or
// Coordinator.Diagnose) ships each partition subproblem to a worker
// fleet over a versioned wire protocol. A job no worker answers is
// declined back to the engine (core.ErrDeclined), which solves that
// partition on the plan it already holds — a distributed diagnosis
// never loses an instance the local engine can solve, and its merged
// repair goes through the same replay verification. The coordinator
// keeps one persistent multiplexed connection per worker: concurrent
// jobs share the connection and each result streams back the moment
// its solve lands. Partitions are started largest-first (by the
// planner's rows × candidates × complaints estimate), in process and on
// the fleet alike, so the biggest MILP never sits at the back of the
// queue defining the critical path.
//
// Between diagnoses of one history the engine carries a single thing:
// the FullImpact closure of Definition 7, which depends only on each
// statement's read and write attribute sets. Options.ImpactCache holds
// it, keyed by the statements themselves, so a caller that keeps its
// parsed log (internal/histstore, a dist worker) re-plans a repeat
// without the O(n·w) closure and a grown log at the cost of what the
// appends reach. Every MILP is solved cold; answering an exact repeat
// of a whole question is left to whoever is asked it again
// (internal/qfixd's answer memo).
//
// Two commands wrap the engine. cmd/qfix runs one local diagnosis per
// process from a CSV, a SQL log and a complaint file, and links no
// network code. cmd/qfixd is resident: it keeps tenants' history stores
// and their caches open across requests, and it is the one command that
// diagnoses over a qfix-worker fleet (-workers).
//
// The subpackages are exposed for advanced use: internal/encode (the MILP
// encoder), internal/milp and internal/simplex (the solver stack),
// internal/dist (the coordinator/worker distribution layer),
// internal/workload and internal/oltp (the paper's workload generators),
// internal/dectree (the Appendix A baseline), and internal/bench (the
// figure-by-figure reproduction harness driven by cmd/qfix-bench).
package qfix

import (
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/sqlparse"
)

// Re-exported data model types.
type (
	// Schema describes a table's attributes.
	Schema = relation.Schema
	// Table is an in-memory single-table database state.
	Table = relation.Table
	// Tuple is one row with a stable identity.
	Tuple = relation.Tuple
	// Diff is a tuple-level difference between two states.
	Diff = relation.Diff

	// Query is one statement of the update workload.
	Query = query.Query
	// Update, Insert and Delete are the supported statement types.
	Update = query.Update
	// Insert adds one tuple of constant values.
	Insert = query.Insert
	// Delete removes the tuples matching its condition.
	Delete = query.Delete

	// Complaint marks one tuple of the final state as wrong and gives
	// its correct value assignment (paper Definition 4).
	Complaint = core.Complaint
	// Options selects the algorithm (Basic or Incremental) and the
	// slicing optimizations of §5.
	Options = core.Options
	// Repair is a log repair Q* with distance and verification info.
	Repair = core.Repair
	// Stats reports how a diagnosis went (encoding sizes, solver work,
	// partition count).
	Stats = core.Stats
	// Algorithm selects Basic (Algorithm 1) or Incremental (Algorithm 3).
	Algorithm = core.Algorithm
	// ImpactCache caches FullImpact closures across diagnoses of the
	// same (or a growing) log, keyed by the log's statements: hand it
	// the same parsed statements again (a grown log may append to them)
	// and exact repeats skip the O(n·w) closure entirely
	// (Stats.ImpactCacheHits) while diagnoses after appends pay only an
	// incremental extension (Stats.ImpactCacheExtends); a re-parsed log
	// is new statements and misses. Install one via Options.ImpactCache
	// when diagnosing repeatedly; internal/histstore keeps one per
	// store, dist workers one per process.
	ImpactCache = core.ImpactCache
)

// NewImpactCache returns an impact cache bounded to max closures (0
// picks the default bound). Safe for concurrent use.
func NewImpactCache(max int) *ImpactCache { return core.NewImpactCache(max) }

// Algorithm choices.
const (
	// Basic encodes the whole log in one MILP (paper §4).
	Basic = core.Basic
	// Incremental repairs K consecutive queries at a time, newest first
	// (paper §5.4); the recommended configuration is Incremental with
	// TupleSlicing (inc1-tuple).
	Incremental = core.Incremental
)

// NewSchema builds a table schema; key names the primary-key attribute
// ("" for none).
func NewSchema(name string, attrs []string, key string) (*Schema, error) {
	return relation.NewSchema(name, attrs, key)
}

// NewTable returns an empty table with the given schema.
func NewTable(s *Schema) *Table { return relation.NewTable(s) }

// Parse parses one SQL statement of the supported subset.
func Parse(s *Schema, sql string) (Query, error) { return sqlparse.Parse(s, sql) }

// ParseLog parses a semicolon-separated sequence of statements.
func ParseLog(s *Schema, sql string) ([]Query, error) { return sqlparse.ParseLog(s, sql) }

// Replay applies the log to a clone of d0 and returns the final state.
func Replay(log []Query, d0 *Table) (*Table, error) { return query.Replay(log, d0) }

// DiffTables compares two states tuple-wise (by tuple ID).
func DiffTables(before, after *Table, eps float64) []Diff {
	return relation.DiffTables(before, after, eps)
}

// ComplaintsFromDiff derives the complete complaint set that transforms
// the dirty final state into the true final state.
func ComplaintsFromDiff(dirty, truth *Table, eps float64) []Complaint {
	return core.ComplaintsFromDiff(dirty, truth, eps)
}

// Diagnose analyzes the log and complaints and returns a log repair
// (paper Definition 5). See core.Options for the algorithm and
// optimization switches.
func Diagnose(d0 *Table, log []Query, complaints []Complaint, opt Options) (*Repair, error) {
	return core.Diagnose(d0, log, complaints, opt)
}

// Distance is the Manhattan distance between the parameter vectors of two
// structurally identical logs (§4.3).
func Distance(a, b []Query) float64 { return query.Distance(a, b) }
