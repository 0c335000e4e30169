package main

import (
	"math"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
)

// metricDef names one reported metric. The two tables below are the
// harness's side of BENCHMARK.json; the smoke test holds them equal.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"diagnose_mean_ms", "ms"},
	{"diagnose_tail_ms", "ms"},
	{"diagnoses_per_s", "1/s"},
	{"cpu_s_per_diagnosis", "s"},
	{"mem_mb_per_diagnosis", "MB"},
	{"repair_f1", "ratio"},
	{"setup_s", "s"},
}

// Per-layer metrics are per-diagnosis means unless the name says
// otherwise; a layer a workload does not exercise reports 0.
var perLayerMetrics = []metricDef{
	{"sqlparse.parse_us_per_stmt", "us"},
	{"query.replay_ms", "ms"},
	{"query.replay_stmts", "count"},
	{"core.plan_ms", "ms"},
	{"core.impact_ms", "ms"},
	{"core.impact_extend_us", "us"},
	{"core.relevant_queries", "count"},
	{"core.batches_tried", "count"},
	{"core.encode_ms", "ms"},
	{"core.solve_ms", "ms"},
	{"core.merge_ms", "ms"},
	{"core.unaccounted_ms", "ms"},
	{"core.partitions", "count"},
	{"encode.encode_ms_per_batch", "ms"},
	{"encode.rows", "count"},
	{"encode.vars", "count"},
	{"encode.binaries", "count"},
	{"encode.alloc_kb_per_batch", "KB"},
	{"milp.solve_ms", "ms"},
	{"milp.root_ms", "ms"},
	{"milp.nodes", "count"},
	{"milp.lp_iters", "count"},
	{"milp.presolved_rows", "count"},
	{"simplex.refactorizations", "count"},
	{"simplex.us_per_lp_iter", "us"},
	{"histstore.create_ms", "ms"},
	{"histstore.open_ms", "ms"},
	{"histstore.append_us", "us"},
	{"histstore.checkpoint_ms", "ms"},
	{"histstore.diagnose_cold_ms", "ms"},
	{"histstore.diagnose_warm_ms", "ms"},
	{"histstore.impact_cache_hits", "count"},
	{"histstore.impact_cache_extends", "count"},
	{"histstore.bytes_per_stmt", "B"},
	{"sched.pool_dispatch_us", "us"},
	{"dist.encode_job_ms", "ms"},
	{"dist.decode_job_ms", "ms"},
	{"dist.job_bytes", "B"},
	{"dist.result_bytes", "B"},
	{"dist.remote_jobs", "count"},
	{"dist.local_fallbacks", "count"},
	{"dist.worker_cache_hits", "count"},
	{"dist.streamed_results", "count"},
	{"dist.queue_wait_ms", "ms"},
	{"dist.worker_solve_ms", "ms"},
	{"qfixd.ping_rtt_us", "us"},
	{"qfixd.service_diagnose_ms", "ms"},
	{"qfixd.wire_overhead_ms", "ms"},
	{"qfixd.append_p50_ms", "ms"},
	{"qfixd.request_bytes", "B"},
	{"qfixd.response_bytes", "B"},
	{"qfixd.busy_refusals", "count"},
	{"cmd_qfix.process_overhead_ms", "ms"},
	{"cmd_qfix.load_ms", "ms"},
	{"cmd_qfix.peak_rss_mb", "MB"},
	{"obs.trace_overhead_pct", "%"},
	{"harness.trace_overhead_pct", "%"},
	{"harness.samples", "count"},
	{"harness.sample_p50_ms", "ms"},
	{"harness.sample_p90_ms", "ms"},
	{"harness.passes", "count"},
	{"harness.build_s", "s"},
	{"harness.client_cpu_share", "ratio"},
	{"harness.manifest_count_drift", "ratio"},
	{"harness.ref_kernel_ms", "ms"},
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// percentile is the nearest-rank percentile of xs (not modified).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSeconds is the user+system CPU consumed so far by this process and
// the children it has waited for (the qfix processes of cli_oltp_cold).
func cpuSeconds() float64 {
	var total float64
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err != nil {
			continue // not measurable on this platform; the metric then reads low, not wrong
		}
		total += time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	return total
}

// layerSums accumulates the counters and phase timers of the
// Repair.Stats the diagnoses returned.
type layerSums struct {
	n                                  int
	plan, impact, encode, solve, merge time.Duration
	relevant, batches, partitions      int
	rows, vars, binaries               int
	nodes, iters, presolved, refactor  int
	impactHits, impactExtends          int
	remote, workerCacheHits, streamed  int
	queueWait, partSolve               time.Duration
	partStats                          int
}

func (l *layerSums) add(st *core.Stats) {
	l.n++
	l.plan += st.PlanTime
	l.impact += st.ImpactTime
	l.encode += st.EncodeTime
	l.solve += st.SolveTime
	l.merge += st.MergeTime
	l.relevant += st.RelevantQueries
	l.batches += st.BatchesTried
	l.partitions += st.Partitions
	l.rows += st.Rows
	l.vars += st.Vars
	l.binaries += st.Binaries
	l.nodes += st.Nodes
	l.iters += st.LPIters
	l.presolved += st.PresolvedRows
	l.refactor += st.Refactorizations
	l.impactHits += st.ImpactCacheHits
	l.impactExtends += st.ImpactCacheExtends
	l.remote += st.RemoteJobs
	l.workerCacheHits += st.WorkerCacheHits
	l.streamed += st.StreamedResults
	for _, p := range st.PartitionStats {
		l.queueWait += p.QueueWait
		l.partSolve += p.Solve
		l.partStats++
	}
}

// report writes the per-diagnosis means of the engine layers into m;
// the cache and fleet counters belong to one workload each and are
// reported by its driver.
func (l *layerSums) report(m map[string]float64) {
	n := float64(l.n)
	per := func(d time.Duration) float64 { return ratio(ms(d), n) }
	m["core.plan_ms"] = per(l.plan)
	m["core.impact_ms"] = per(l.impact)
	m["core.encode_ms"] = per(l.encode)
	m["core.solve_ms"] = per(l.solve)
	m["core.merge_ms"] = per(l.merge)
	m["core.relevant_queries"] = ratio(float64(l.relevant), n)
	m["core.batches_tried"] = ratio(float64(l.batches), n)
	m["core.partitions"] = ratio(float64(l.partitions), n)
	b := float64(l.batches)
	m["encode.rows"] = ratio(float64(l.rows), b)
	m["encode.vars"] = ratio(float64(l.vars), b)
	m["encode.binaries"] = ratio(float64(l.binaries), b)
	m["milp.nodes"] = ratio(float64(l.nodes), n)
	m["milp.lp_iters"] = ratio(float64(l.iters), n)
	m["milp.presolved_rows"] = ratio(float64(l.presolved), n)
	m["simplex.refactorizations"] = ratio(float64(l.refactor), n)
}
