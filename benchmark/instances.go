package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/oltp"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// instSpec is one vetted instance of the pool: the generator parameters
// that rebuild it, and what the diagnosis returned at the commit that
// wrote the manifest. Instances are named by parameters only, never by
// how long they took: CostMS put near-equal instances in one slot when
// the manifest was written and is not consulted at run time; AllocKB
// balances the seed's draw (manifest.pick).
type instSpec struct {
	// Kind selects the generator: "synthetic" (workload.Generate range
	// UPDATEs), "tpcc"/"tatp" (internal/oltp), "clusters"
	// (bench.PartitionClusters).
	Kind     string  `json:"kind"`
	Rows     int     `json:"rows"`               // ND / orders / subscribers / rows per cluster
	Queries  int     `json:"queries"`            // log length (per cluster for "clusters")
	Range    float64 `json:"range,omitempty"`    // synthetic range-predicate width
	Clusters int     `json:"clusters,omitempty"` // independent clusters, one corruption each
	// Age places the single corruption: the Age-th statement from the
	// end (synthetic) or the Age-th most recent UPDATE (tpcc, tatp).
	Age     int   `json:"age,omitempty"`
	GenSeed int64 `json:"gen_seed"`

	// Expectations. Digest and F1 are checked on every diagnosis (a
	// mismatch is a failure); the counts repeat exactly for a given
	// engine and are reported as drift when an engine change moves them.
	Digest     string  `json:"digest"`
	F1         float64 `json:"f1"`
	Nodes      int     `json:"nodes"`
	LPIters    int     `json:"lp_iters"`
	Batches    int     `json:"batches"`
	Partitions int     `json:"partitions"`
	CostMS     float64 `json:"cost_ms"`
	AllocKB    float64 `json:"alloc_kb"` // Go heap allocated by one diagnosis
}

// instance is a built instSpec: inputs for the program under test plus
// the generator's ground truth for scoring.
type instance struct {
	spec   instSpec
	id     int // position in the run's instance list
	in     *workload.Instance
	schema *relation.Schema
	sql    []string // the dirty log as canonical SQL, one statement each
	want   digest   // spec.Digest parsed
}

func (s instSpec) String() string {
	switch s.Kind {
	case "clusters":
		return fmt.Sprintf("clusters(%dx%d rows, %d q/cluster, seed %d)", s.Clusters, s.Rows, s.Queries, s.GenSeed)
	case "synthetic":
		return fmt.Sprintf("synthetic(nd=%d nq=%d r=%g age=%d seed %d)", s.Rows, s.Queries, s.Range, s.Age, s.GenSeed)
	}
	return fmt.Sprintf("%s(rows=%d nq=%d age=%d seed %d)", s.Kind, s.Rows, s.Queries, s.Age, s.GenSeed)
}

// build regenerates the instance from its parameters.
func (s instSpec) build() (*instance, error) {
	var (
		w       *workload.Workload
		corrupt []int
		err     error
	)
	switch s.Kind {
	case "synthetic":
		w, err = workload.Generate(workload.Config{ND: s.Rows, Nq: s.Queries, Range: s.Range, Seed: s.GenSeed})
		corrupt = []int{s.Queries - s.Age}
	case "tpcc":
		w = oltp.TPCC(oltp.TPCCConfig{Orders: s.Rows, Queries: s.Queries, Seed: s.GenSeed})
		corrupt, err = nthUpdateFromEnd(w.Log, s.Age)
	case "tatp":
		w = oltp.TATP(oltp.TATPConfig{Subscribers: s.Rows, Queries: s.Queries, Seed: s.GenSeed})
		corrupt, err = nthUpdateFromEnd(w.Log, s.Age)
	case "clusters":
		w, corrupt, err = bench.PartitionClusters(s.Clusters, s.Rows, s.Queries, s.GenSeed)
	default:
		err = fmt.Errorf("unknown instance kind %q", s.Kind)
	}
	if err != nil {
		return nil, fmt.Errorf("%v: %w", s, err)
	}
	in, err := w.MakeInstance(corrupt...)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", s, err)
	}
	inst := &instance{spec: s, in: in, schema: w.Schema, sql: renderLog(w.Schema, in.Dirty)}
	if s.Digest != "" {
		v, err := strconv.ParseUint(s.Digest, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("%v: bad digest %q", s, s.Digest)
		}
		inst.want = digest(v)
	}
	return inst, nil
}

// nthUpdateFromEnd returns the index of the n-th most recent UPDATE.
func nthUpdateFromEnd(log []query.Query, n int) ([]int, error) {
	for i := len(log) - 1; i >= 0; i-- {
		if _, ok := log[i].(*query.Update); ok {
			if n--; n <= 0 {
				return []int{i}, nil
			}
		}
	}
	return nil, fmt.Errorf("log has fewer UPDATEs than age")
}

func renderLog(sch *relation.Schema, log []query.Query) []string {
	out := make([]string, len(log))
	for i, q := range log {
		out[i] = q.String(sch)
	}
	return out
}

func parseLog(sch *relation.Schema, sql []string) ([]query.Query, error) {
	return sqlparse.ParseLog(sch, strings.Join(sql, ";\n"))
}

// cliOptions are the qfix CLI's defaults; every workload diagnoses with
// them, so one reference serves the CLI, the daemon and the library.
func cliOptions() core.Options {
	return core.Options{
		Algorithm:    core.Incremental,
		K:            1,
		TupleSlicing: true,
		QuerySlicing: true,
		TimeLimit:    60 * time.Second,
	}
}

// diagOptions are the options a workload's diagnoses run with: the CLI
// defaults, partitioned on fleet_partitioned.
func diagOptions(wl string) core.Options {
	opt := cliOptions()
	if wl == fleetPartitioned {
		opt.Partition = fleetPartition
	}
	return opt
}

// digest is FNV-1a over a repaired log's canonical SQL. It is a plain
// integer so the daemon workload can extend an expected digest by the
// statements it appends.
type digest uint64

const (
	digestSeed  digest = 14695981039346656037
	digestPrime digest = 1099511628211
)

func (d digest) add(stmt string) digest {
	for i := 0; i < len(stmt); i++ {
		d = (d ^ digest(stmt[i])) * digestPrime
	}
	return (d ^ ';') * digestPrime
}

func digestOf(sql []string) digest {
	d := digestSeed
	for _, s := range sql {
		d = d.add(s)
	}
	return d
}

func (d digest) String() string { return strconv.FormatUint(uint64(d), 16) }
