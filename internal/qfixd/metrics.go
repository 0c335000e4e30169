package qfixd

import "repro/internal/obs"

// Process-wide metrics on obs.Default(), exposed by cmd/qfixd's admin
// endpoint (/metrics). The daemon family describes the service's front
// door; the engine, dist, and histstore families fill in what each
// admitted diagnosis then did.
var (
	mRequests = obs.Default().Counter("qfix_daemon_requests_total",
		"Diagnose requests received (before admission).")
	mBusy = obs.Default().Counter("qfix_daemon_busy_total",
		"Diagnose requests refused with backpressure (tenant queue full).")
	mMemoHits = obs.Default().Counter("qfix_daemon_memo_hits_total",
		"Wire diagnose requests answered from the tenant's answer memo (no engine run, no slot).")
	mMemoMisses = obs.Default().Counter("qfix_daemon_memo_misses_total",
		"Wire diagnose requests that ran the engine (first, changed, or not memoisable).")
	mInflight = obs.Default().Gauge("qfix_daemon_inflight",
		"Diagnoses currently running.")
	mQueueDepth = obs.Default().Gauge("qfix_daemon_queue_depth",
		"Diagnose requests waiting for an inflight slot, across all tenants.")
	mDiagnoseSeconds = obs.Default().Histogram("qfix_daemon_diagnose_seconds",
		"Per-diagnosis wall time as served (queue wait excluded).", nil)
	mTenants = obs.Default().Gauge("qfix_daemon_tenants",
		"Tenant stores currently resident.")
	mStoreEvictions = obs.Default().Counter("qfix_daemon_store_evictions_total",
		"Idle tenant stores closed by the lookup-time eviction sweep.")
)
