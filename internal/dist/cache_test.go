package dist_test

import (
	"testing"
	"time"

	"repro/internal/dist"
)

// Regression (coordinator budget drain): with a TotalTimeLimit set, a
// dispatch attempt used to wait out the *entire* remaining budget on a
// hung worker, so the promised retry on a distinct worker never ran and
// the local fallback started broke. Each attempt must now be capped at
// min(JobTimeout, remaining budget + slack): with one hung and one
// healthy worker, every job reaches the healthy worker after at most
// one JobTimeout, well inside the budget.
func TestDispatchBudgetCappedOnHungWorker(t *testing.T) {
	d0, log, complaints := benchInstance(t, 2)
	want := localReference(t, d0, log, complaints)

	// JobTimeout is generous against race-detector-slowed solves yet a
	// tiny fraction of the budget the old code would wait per attempt.
	coord := dist.Connect(dist.Config{JobTimeout: 10 * time.Second, Retries: 1, Logf: t.Logf},
		startBlackHoleWorker(t), startWorker(t))
	defer coord.Close()

	opts := partitionOpts()
	opts.TotalTimeLimit = 5 * time.Minute // the budget a hung worker used to drain per attempt
	start := time.Now()
	got, err := coord.Diagnose(d0, log, complaints, opts)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Resolved {
		t.Fatalf("diagnosis with a hung worker unresolved: %+v", got.Stats)
	}
	sch := d0.Schema()
	if w, g := repairFingerprint(sch, want), repairFingerprint(sch, got); w != g {
		t.Errorf("hung-worker repair differs from local:\n got:\n%s\nwant:\n%s", g, w)
	}
	if got.Stats.RemoteJobs != got.Stats.Partitions {
		t.Errorf("RemoteJobs = %d, want %d (retry must reach the healthy worker)",
			got.Stats.RemoteJobs, got.Stats.Partitions)
	}
	// Generous bound: 2 jobs × (one 10s hung attempt + solve + slack)
	// stays under a minute; the uncapped behavior needed over 5 minutes
	// per hung attempt.
	if elapsed > 2*time.Minute {
		t.Errorf("diagnosis took %v; the hung worker drained the budget", elapsed)
	}
}

// E2E: over a mux connection every partition job of a run but the
// first names the body (D0 and log) the connection already holds
// instead of carrying it, run after run (each diagnosis has a body of
// its own), while the repairs stay byte-identical to the local
// reference; the worker's impact cache serves the jobs that share a
// decoded body.
func TestWorkerCacheRepeatJobsByteIdentical(t *testing.T) {
	d0, log, complaints := benchInstance(t, 4)
	want := localReference(t, d0, log, complaints)
	sch := d0.Schema()

	// One worker, so all four partition jobs share one connection.
	coord := dist.Connect(dist.Config{Mux: true, Logf: t.Logf}, startWorker(t))
	defer coord.Close()

	for run := 1; run <= 2; run++ {
		got, err := coord.Diagnose(d0, log, complaints, partitionOpts())
		if err != nil {
			t.Fatal(err)
		}
		if w, g := repairFingerprint(sch, want), repairFingerprint(sch, got); w != g {
			t.Errorf("run %d: distributed repair differs from local:\n got:\n%s\nwant:\n%s", run, g, w)
		}
		if got.Stats.RemoteJobs != got.Stats.Partitions {
			t.Errorf("run %d: RemoteJobs = %d, want %d", run, got.Stats.RemoteJobs, got.Stats.Partitions)
		}
		if got.Stats.WorkerCacheHits != got.Stats.RemoteJobs-1 {
			t.Errorf("run %d: WorkerCacheHits = %d of %d jobs, want all but the one that carried the body",
				run, got.Stats.WorkerCacheHits, got.Stats.RemoteJobs)
		}
		if got.Stats.ImpactCacheHits == 0 {
			t.Errorf("run %d: worker impact cache never hit; jobs over one body re-planned from scratch", run)
		}
	}
}
