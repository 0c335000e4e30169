package simplex

import "repro/internal/obs"

// Process-wide counters published into obs.Default(), surfaced by
// qfix-worker's -telemetry endpoint and `qfix -metrics`. Incremented at
// refactorization time and at the end of a solve only — one atomic add
// per sparse LU rebuild is noise next to the rebuild itself, so the hot
// pivot loop stays clean.
var (
	mRefactorizations = obs.Default().Counter("qfix_simplex_refactorizations_total",
		"Sparse LU basis refactorizations performed across all simplex solves.")
	mNumFails = obs.Default().Counter("qfix_simplex_numfail_total",
		"Simplex solves that ended in a numerical failure, cold retry included.")
)
