package dist

import "repro/internal/obs"

// Process-wide metrics on obs.Default(). The coordinator-side family
// (qfix_dist_*) describes dispatch as seen from the diagnosing process;
// the worker-side family (qfix_worker_*) describes the serving process.
// A process that both dispatches and serves (loopback tests, qfix with
// local workers) publishes into both.
var (
	mDistJobs = obs.Default().Counter("qfix_dist_jobs_total",
		"Partition jobs offered to the worker fleet (before retries).")
	mDistRetries = obs.Default().Counter("qfix_dist_retries_total",
		"Dispatch attempts beyond each job's first (failures re-offered to another worker).")
	mDistFallbacks = obs.Default().Counter("qfix_dist_fallbacks_total",
		"Jobs that exhausted their worker attempts and solved on the local engine.")
	mDistSlowJobs = obs.Default().Counter("qfix_dist_slow_jobs_total",
		"Dispatch attempts that ran past half their attempt timeout (see the slow-job warning).")
	mDistWireSeconds = obs.Default().Histogram("qfix_dist_wire_seconds",
		"Per-attempt round-trip time of successful remote solves (send + worker solve + result).", nil)
	mDistReconnects = obs.Default().Counter("qfix_dist_reconnects_total",
		"Persistent mux connections re-dialed after a break (first dials not counted).")

	mWorkerJobs = obs.Default().Counter("qfix_worker_jobs_total",
		"Jobs this worker process accepted into its solve pool.")
	mWorkerJobSeconds = obs.Default().Histogram("qfix_worker_job_seconds",
		"Per-job worker solve wall time (slot acquisition excluded).", nil)
	mWorkerInflight = obs.Default().Gauge("qfix_worker_inflight",
		"Jobs currently solving in this worker's pool.")
	mWorkerQueueDepth = obs.Default().Gauge("qfix_worker_queue_depth",
		"Jobs read off a connection and waiting for a solve slot.")
	mWorkerCacheHits = obs.Default().Counter("qfix_worker_cache_hits_total",
		"Jobs that named a body (D0 and log) their connection already held instead of carrying it.")
	mWorkerCacheMisses = obs.Default().Counter("qfix_worker_cache_misses_total",
		"Jobs that carried their body (D0 and log), decoded once into their connection's table.")
)
