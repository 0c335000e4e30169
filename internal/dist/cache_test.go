package dist_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/testcheck"
)

// Regression (coordinator budget drain): with a TotalTimeLimit set, a
// dispatch attempt used to wait out the *entire* remaining budget on a
// hung worker, so the promised retry on a distinct worker never ran and
// the local fallback started broke. Each attempt must now be capped at
// min(JobTimeout, remaining budget + slack): with one hung and one
// healthy worker, every job reaches the healthy worker after at most
// one JobTimeout, well inside the budget. The hung attempt must end
// when its context does, and closing the coordinator and the workers
// leaves no goroutine behind.
func TestDispatchBudgetCappedOnHungWorker(t *testing.T) {
	d0, log, complaints := benchInstance(t, 2)
	want := localReference(t, d0, log, complaints)
	sch := d0.Schema()

	base := runtime.NumGoroutine()
	// The subtest keeps the name it had when the fleet also had a
	// dial-per-job transport; it runs over the multiplexed one.
	t.Run("mux=true", func(t *testing.T) {
		coord := dist.Connect(dist.Config{JobTimeout: 2 * time.Second, Logf: t.Logf},
			startBlackHoleWorker(t), startWorker(t))
		defer coord.Close()

		opts := partitionOpts()
		opts.TotalTimeLimit = 5 * time.Minute // the budget a hung worker used to drain per attempt
		type outcome struct {
			rep *core.Repair
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			rep, err := coord.Diagnose(d0, log, complaints, opts)
			done <- outcome{rep, err}
		}()
		var got *core.Repair
		// 2 jobs × (one 2s hung attempt + solve + slack) stay far
		// under the guard; a transport that ignores its attempt's
		// context waits on the hung worker forever.
		select {
		case out := <-done:
			if out.err != nil {
				t.Fatal(out.err)
			}
			got = out.rep
		case <-time.After(30 * time.Second):
			t.Fatal("diagnosis still waiting on the hung worker after 30s; an attempt ignored its context")
		}
		if !got.Resolved {
			t.Fatalf("diagnosis with a hung worker unresolved: %+v", got.Stats)
		}
		if w, g := repairFingerprint(sch, want), repairFingerprint(sch, got); w != g {
			t.Errorf("hung-worker repair differs from local:\n got:\n%s\nwant:\n%s", g, w)
		}
		if got.Stats.RemoteJobs != got.Stats.Partitions {
			t.Errorf("RemoteJobs = %d, want %d (retry must reach the healthy worker)",
				got.Stats.RemoteJobs, got.Stats.Partitions)
		}
	})
	testcheck.Goroutines(t, base)
}

// E2E: over a mux connection every partition job of a run but the
// first names the body (D0 and log) the connection already holds
// instead of carrying it, run after run (each diagnosis has a body of
// its own), while the repairs stay byte-identical to the local
// reference and the solver's counters and partition plan equal to the
// first run's, at GOMAXPROCS 1 and N; the worker plans the body once
// for all of its jobs.
func TestWorkerCacheRepeatJobsByteIdentical(t *testing.T) {
	d0, log, complaints := benchInstance(t, 4)
	want := localReference(t, d0, log, complaints)
	sch := d0.Schema()
	runs := 6
	if testing.Short() {
		runs = 2
	}
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)

	// One worker, so all four partition jobs share one connection.
	coord := dist.Connect(dist.Config{Logf: t.Logf}, startWorker(t))
	defer coord.Close()

	var first string
	for run := 1; run <= runs; run++ {
		runtime.GOMAXPROCS([]int{1, max(procs, 4)}[run%2])
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
		if got.Stats.PlanPasses != 2 {
			t.Errorf("run %d: PlanPasses = %d, want 2 (1 local + 1 for the body); jobs over one body re-planned",
				run, got.Stats.PlanPasses)
		}
		// The solver's work and the partition plan, in plan order, must
		// repeat. (Core's determinism test compares every counter of the
		// in-process engine.)
		st := got.Stats
		c := fmt.Sprintln(st.Rows, st.Vars, st.Binaries, st.BatchesTried, st.Nodes, st.LPIters,
			st.Refactorizations, st.PresolvedRows, st.LPNumFails, st.LPIterLimits, st.NodeLimitStops, st.TimeLimitStops,
			st.Replays, st.LastStatus)
		for _, p := range st.PartitionStats {
			c += fmt.Sprintln(p.Index, p.Complaints, p.Candidates, p.Remote, p.Worker, p.Attempts, p.Nodes, p.Status)
		}
		if run == 1 {
			first = c
		} else if c != first {
			t.Errorf("run %d: counters differ from run 1:\n got %s\nwant %s", run, c, first)
		}
	}
}

// TestWorkerPlansEachBodyOnce: a worker plans each body it decodes once,
// and every job over the body solves on that plan, concurrently. Over
// one loopback worker, so all four partition jobs of a diagnosis share
// one body, the diagnosis reports exactly two planning passes (the
// coordinator's and the body's) and one replay more than the local run,
// run after run at GOMAXPROCS 1 and N, and repairs byte-identical to
// the local reference.
func TestWorkerPlansEachBodyOnce(t *testing.T) {
	d0, log, complaints := benchInstance(t, 4)
	want := localReference(t, d0, log, complaints)
	sch := d0.Schema()
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)

	coord := dist.Connect(dist.Config{Logf: t.Logf}, startWorker(t))
	defer coord.Close()
	for run, p := range []int{1, max(procs, 4), 1, max(procs, 4)} {
		runtime.GOMAXPROCS(p)
		got, err := coord.Diagnose(d0, log, complaints, partitionOpts())
		if err != nil {
			t.Fatal(err)
		}
		st := got.Stats
		if st.Partitions < 4 || st.RemoteJobs != st.Partitions {
			t.Fatalf("run %d: %d partitions, %d solved remotely; want >= 4, all remote", run, st.Partitions, st.RemoteJobs)
		}
		if w, g := repairFingerprint(sch, want), repairFingerprint(sch, got); w != g {
			t.Errorf("run %d (GOMAXPROCS %d): repair differs from local:\n got:\n%s\nwant:\n%s", run, p, g, w)
		}
		if st.PlanPasses != 2 {
			t.Errorf("run %d (GOMAXPROCS %d): PlanPasses = %d, want 2 (1 local + 1 for the body)", run, p, st.PlanPasses)
		}
		if st.Replays != want.Stats.Replays+1 {
			t.Errorf("run %d (GOMAXPROCS %d): Replays = %d, want %d (the local run's, plus the body's planning replay)",
				run, p, st.Replays, want.Stats.Replays+1)
		}
	}
}
