package core

import (
	"time"

	"repro/internal/obs"
)

// phase times one pipeline phase through a single pair of
// instrumentation points: when tracing, the span's own clock is the
// measurement; when not, a plain wall-clock read at the same two points
// is. Stats durations and trace spans therefore always describe the
// same interval — the "one consistent truth" contract of Stats.
type phase struct {
	sp *obs.Span
	t0 time.Time
}

// startPhase opens a phase under parent (nil parent → untraced phase).
func startPhase(parent *obs.Span, name string) phase {
	return phase{sp: parent.Start(name), t0: time.Now()}
}

// stop ends the phase and returns its duration. Call exactly once.
func (p phase) stop() time.Duration {
	if p.sp != nil {
		return p.sp.End()
	}
	return time.Since(p.t0)
}

// Process-wide metrics the engine publishes into (obs.Default()),
// rendered by qfix-worker's -telemetry endpoint and `qfix -metrics`.
var (
	mDiagnoses = obs.Default().Counter("qfix_diagnoses_total",
		"Diagnoses run by this process (including partition subproblems solved as worker jobs).")
	mDiagnosesResolved = obs.Default().Counter("qfix_diagnoses_resolved_total",
		"Diagnoses that returned a replay-verified repair.")
	mPlanSeconds = obs.Default().Histogram("qfix_plan_seconds",
		"Per-diagnosis planning wall time (replay + FullImpact + slicing).", nil)
	mEncodeSeconds = obs.Default().Histogram("qfix_encode_seconds",
		"Per-diagnosis total MILP encoding wall time.", nil)
	mSolveSeconds = obs.Default().Histogram("qfix_solve_seconds",
		"Per-diagnosis total MILP solving wall time.", nil)
	mImpactCacheHits = obs.Default().Counter("qfix_impact_cache_hits_total",
		"FullImpact closures served from the impact cache (exact hits and incremental extends).")
	mImpactCacheMisses = obs.Default().Counter("qfix_impact_cache_misses_total",
		"FullImpact closures computed from scratch despite a configured impact cache.")
)
