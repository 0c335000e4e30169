package histstore

import "repro/internal/obs"

// Process-wide counters on obs.Default(): store lifecycle and write
// traffic, surfaced by qfixd's -admin endpoint alongside the engine's
// own metrics.
var (
	mOpens = obs.Default().Counter("qfix_histstore_opens_total",
		"History-store directories opened or created by this process.")
	mAppends = obs.Default().Counter("qfix_histstore_appends_total",
		"Statements durably appended to a store's log (each one is an fsync).")
	mCheckpoints = obs.Default().Counter("qfix_histstore_checkpoints_total",
		"Snapshot rewrites committed (log truncations).")
	mDiagnoses = obs.Default().Counter("qfix_histstore_diagnoses_total",
		"Diagnoses run through a store (Store.Diagnose).")
)
