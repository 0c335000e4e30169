package dist_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
)

// TestDistributedSolverConfigMatchesLocal pins the solver option's ride
// over the wire: a loopback-TCP fleet running parallel in-solve search
// must return the repair byte-identical to plain local sequential
// diagnosis. This is the distributed leg of the solver-determinism
// property — SolverParallel is byte-invisible by construction, so it may
// not shift a partition's repair no matter which process solves it.
func TestDistributedSolverConfigMatchesLocal(t *testing.T) {
	d0, log, complaints := benchInstance(t, 4)
	want := localReference(t, d0, log, complaints)
	sch := d0.Schema()

	coord := dist.Connect(dist.Config{Logf: t.Logf}, startWorker(t), startWorker(t))
	defer coord.Close()

	opts := partitionOpts()
	opts.SolverParallel = 4
	got, err := coord.Diagnose(d0, log, complaints, opts)
	if err != nil {
		t.Fatal(err)
	}
	if w, g := repairFingerprint(sch, want), repairFingerprint(sch, got); w != g {
		t.Errorf("distributed repair differs from local sequential:\n got:\n%s\nwant:\n%s", g, w)
	}
	if got.Stats.RemoteJobs != got.Stats.Partitions {
		t.Errorf("RemoteJobs = %d, want every partition (%d) solved remotely",
			got.Stats.RemoteJobs, got.Stats.Partitions)
	}
}

// TestServerClampsSolverParallel sends a loopback worker a job asking
// for 1<<20 LP workers. It must answer with the local repair byte for
// byte, on at most the worker's own width: each of at most GOMAXPROCS
// concurrent solves runs at most GOMAXPROCS LP workers.
func TestServerClampsSolverParallel(t *testing.T) {
	d0, log, complaints := benchInstance(t, 2)
	opts := core.Options{Algorithm: core.Basic, TupleSlicing: true, QuerySlicing: true, TimeLimit: 30 * time.Second}
	want, err := core.Diagnose(d0, log, complaints, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.SolverParallel = 1 << 20
	job, err := dist.EncodeJob(1, core.Subproblem{D0: d0, Log: log, Complaints: complaints, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	worker := dist.DialMux(startWorker(t))
	defer worker.Close()
	var res *dist.Result
	peak := peakSchedWorkers(func() { res, err = worker.Do(context.Background(), job) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dist.DecodeResult(res); err != nil {
		t.Fatal(err)
	}
	local, err := dist.EncodeResult(res.ID, want, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Distance != local.Distance || res.Resolved != local.Resolved ||
		!reflect.DeepEqual(res.Changed, local.Changed) || !reflect.DeepEqual(res.Params, local.Params) {
		t.Errorf("worker repair differs from local: changed=%v params=%v distance=%v resolved=%v, want %v %v %v %v",
			res.Changed, res.Params, res.Distance, res.Resolved,
			local.Changed, local.Params, local.Distance, local.Resolved)
	}
	if w := int64(runtime.GOMAXPROCS(0)); peak > w*w {
		t.Errorf("the job ran %d scheduler goroutines at once, want at most %d", peak, w*w)
	}
}

// peakSchedWorkers runs f and returns the most scheduler goroutines
// (scan workers and speculative LP workers: the qfix_sched_workers
// gauge) alive at once while it ran, beyond those alive before.
func peakSchedWorkers(f func()) int64 {
	g := obs.Default().Gauge("qfix_sched_workers", "")
	base := g.Value()
	var peak int64
	done, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-done:
				return
			default:
			}
			peak = max(peak, g.Value()-base)
			runtime.Gosched()
		}
	}()
	f()
	close(done)
	<-sampled
	return peak
}
