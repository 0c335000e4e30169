package dist_test

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
)

// TestDistributedMuxLoopback is the mux wire's end-to-end acceptance
// check: two real workers on loopback TCP served over persistent
// multiplexed connections, and a repair byte-identical to local
// partitioned diagnosis, with every result streamed and each worker
// accepting one connection for all of its jobs (no per-job dial).
func TestDistributedMuxLoopback(t *testing.T) {
	d0, log, complaints := benchInstance(t, 4)
	want := localReference(t, d0, log, complaints)

	var accepts [2]atomic.Int64
	var addrs []string
	for i := range accepts {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := &dist.Server{Logf: t.Logf}
		go srv.Serve(acceptCounter{l, &accepts[i]})
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, l.Addr().String())
	}

	coord := dist.Connect(dist.Config{Logf: t.Logf}, addrs...)
	defer coord.Close()
	got, err := coord.Diagnose(d0, log, complaints, partitionOpts())
	if err != nil {
		t.Fatal(err)
	}
	sch := d0.Schema()
	if w, g := repairFingerprint(sch, want), repairFingerprint(sch, got); w != g {
		t.Errorf("mux distributed repair differs from local:\n got:\n%s\nwant:\n%s", g, w)
	}
	if got.Stats.Partitions != 4 {
		t.Errorf("Stats.Partitions = %d, want 4", got.Stats.Partitions)
	}
	if got.Stats.RemoteJobs != 4 {
		t.Errorf("Stats.RemoteJobs = %d, want 4 (healthy fleet solves everything remotely)",
			got.Stats.RemoteJobs)
	}
	if got.Stats.StreamedResults != got.Stats.RemoteJobs {
		t.Errorf("Stats.StreamedResults = %d, want %d (every result over the persistent connection)",
			got.Stats.StreamedResults, got.Stats.RemoteJobs)
	}
	// Every LP of the fixture solves to optimality: no node's relaxation
	// stopped on a numerical failure or the iteration limit, here or on
	// the workers.
	if got.Stats.LPNumFails != 0 || got.Stats.LPIterLimits != 0 {
		t.Errorf("LP exits: %d numerical failures, %d iteration limits; want none",
			got.Stats.LPNumFails, got.Stats.LPIterLimits)
	}
	for i := range accepts {
		if n := accepts[i].Load(); n != 1 {
			t.Errorf("worker %s accepted %d connections, want 1 for all its jobs", addrs[i], n)
		}
	}
}

// TestBackingOffWorkerFailsOver holds one of two workers' reconnect
// backoff, as a broken link arms it: every job whose attempt reaches
// that worker must fail at once without a connection to it, then solve
// on the other worker, so the repair is the local one and nothing falls
// back to the local engine.
func TestBackingOffWorkerFailsOver(t *testing.T) {
	d0, log, complaints := benchInstance(t, 4)
	want := localReference(t, d0, log, complaints)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepts atomic.Int64
	srv := &dist.Server{Logf: t.Logf}
	go srv.Serve(acceptCounter{l, &accepts})
	t.Cleanup(func() { srv.Close() })
	down := dist.DialMux(l.Addr().String())
	dist.HoldBackoff(down, time.Minute)
	healthy := startWorker(t)

	coord := dist.NewCoordinator(dist.Config{Logf: t.Logf}, down, dist.DialMux(healthy))
	defer coord.Close()
	got, err := coord.Diagnose(d0, log, complaints, partitionOpts())
	if err != nil {
		t.Fatal(err)
	}
	if n := accepts.Load(); n != 0 {
		t.Errorf("the backing-off worker accepted %d connections, want none", n)
	}
	sch := d0.Schema()
	if w, g := repairFingerprint(sch, want), repairFingerprint(sch, got); w != g {
		t.Errorf("repair with a backing-off worker differs from local:\n got:\n%s\nwant:\n%s", g, w)
	}
	if got.Stats.RemoteJobs != got.Stats.Partitions {
		t.Errorf("RemoteJobs = %d, want %d (the healthy worker takes every job)",
			got.Stats.RemoteJobs, got.Stats.Partitions)
	}
	failedOver := 0
	for _, p := range got.Stats.PartitionStats {
		if p.Worker != healthy {
			t.Errorf("partition %d solved on %q, want the healthy worker %s", p.Index, p.Worker, healthy)
		}
		if p.Attempts == 2 {
			failedOver++
		}
	}
	if failedOver == 0 {
		t.Error("no job's first attempt went to the backing-off worker; the test checks nothing")
	}
}

// acceptCounter counts the connections its listener accepts.
type acceptCounter struct {
	net.Listener
	n *atomic.Int64
}

func (l acceptCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

// TestDistributedMuxReconnectAfterWorkerRestart restarts the worker
// between two diagnoses on one coordinator: the persistent connection
// breaks with the old process, the transport reconnects (after its
// backoff) to the new one, and both runs pin byte-identical repairs.
// Both runs go through one Solver of the coordinator, so they share one
// body; the new connection starts with empty tables, so its first frame
// must carry that body again, or the new worker would refuse every job.
func TestDistributedMuxReconnectAfterWorkerRestart(t *testing.T) {
	d0, log, complaints := benchInstance(t, 4)
	want := localReference(t, d0, log, complaints)
	sch := d0.Schema()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	srv := &dist.Server{Logf: t.Logf}
	go srv.Serve(l)

	coord := dist.Connect(dist.Config{Logf: t.Logf}, addr)
	defer coord.Close()
	opts := partitionOpts()
	opts.PartitionSolver = coord.Solver()

	got1, err := core.Diagnose(d0, log, complaints, opts)
	if err != nil {
		t.Fatal(err)
	}
	if w, g := repairFingerprint(sch, want), repairFingerprint(sch, got1); w != g {
		t.Errorf("run 1 repair differs from local:\n got:\n%s\nwant:\n%s", g, w)
	}
	if got1.Stats.StreamedResults != got1.Stats.Partitions {
		t.Errorf("run 1: StreamedResults = %d, want %d", got1.Stats.StreamedResults, got1.Stats.Partitions)
	}

	// Kill the worker process (its listener and every connection die)...
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// ...and restart it on the same address.
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := &dist.Server{Logf: t.Logf}
	go srv2.Serve(l2)
	t.Cleanup(func() { srv2.Close() })

	// Let the transport notice the broken connection and outwait its
	// first reconnect backoff so run 2 re-establishes the mux link.
	time.Sleep(600 * time.Millisecond)

	got2, err := core.Diagnose(d0, log, complaints, opts)
	if err != nil {
		t.Fatal(err)
	}
	if w, g := repairFingerprint(sch, want), repairFingerprint(sch, got2); w != g {
		t.Errorf("post-restart repair differs from local:\n got:\n%s\nwant:\n%s", g, w)
	}
	if got2.Stats.RemoteJobs != got2.Stats.Partitions {
		t.Errorf("post-restart RemoteJobs = %d, want %d (restarted worker must serve again)",
			got2.Stats.RemoteJobs, got2.Stats.Partitions)
	}
	if got2.Stats.StreamedResults != got2.Stats.Partitions {
		t.Errorf("post-restart StreamedResults = %d, want %d (mux link must re-establish)",
			got2.Stats.StreamedResults, got2.Stats.Partitions)
	}
	for run, got := range []*core.Repair{got1, got2} {
		if got.Stats.WorkerCacheHits != got.Stats.RemoteJobs-1 {
			t.Errorf("run %d: WorkerCacheHits = %d of %d jobs, want all but the first frame on its connection",
				run+1, got.Stats.WorkerCacheHits, got.Stats.RemoteJobs)
		}
	}
}

// TestInProcHonorsContext is the regression for the ctx-deaf InProc
// path: a job whose context is already dead must be refused as a
// transport error, not solved to completion on borrowed time.
func TestInProcHonorsContext(t *testing.T) {
	job, err := dist.EncodeJob(1, fixtureSubproblem(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (dist.InProc{}).Do(ctx, job); err == nil {
		t.Fatal("InProc solved a job whose context was already canceled")
	}
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := (dist.InProc{}).Do(expired, job); err == nil {
		t.Fatal("InProc solved a job whose deadline had already passed")
	}
}
