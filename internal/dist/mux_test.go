package dist_test

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
)

// TestDistributedMuxLoopback is the mux wire's end-to-end acceptance
// check: two real workers on loopback TCP served over persistent
// multiplexed connections, and a repair byte-identical to local
// partitioned diagnosis, with every result streamed (no per-job dial).
func TestDistributedMuxLoopback(t *testing.T) {
	d0, log, complaints := benchInstance(t, 4)
	want := localReference(t, d0, log, complaints)

	coord := dist.Connect(dist.Config{Mux: true, Logf: t.Logf}, startWorker(t), startWorker(t))
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
}

// TestDistributedMuxWorkerKilledMidRun kills one of two mux-served
// workers mid-solve. In-flight jobs on the broken connection fail as
// transport errors, retry on the healthy worker, and the repair stays
// byte-identical — the no-lost-instances guarantee over wire v3.
func TestDistributedMuxWorkerKilledMidRun(t *testing.T) {
	d0, log, complaints := benchInstance(t, 4)
	want := localReference(t, d0, log, complaints)

	coord := dist.Connect(dist.Config{Mux: true, Retries: 1, Logf: t.Logf},
		startWorker(t), startCrashingWorker(t))
	defer coord.Close()
	got, err := coord.Diagnose(d0, log, complaints, partitionOpts())
	if err != nil {
		t.Fatal(err)
	}
	sch := d0.Schema()
	if w, g := repairFingerprint(sch, want), repairFingerprint(sch, got); w != g {
		t.Errorf("mux repair with a crashing worker differs from local:\n got:\n%s\nwant:\n%s", g, w)
	}
	if !got.Resolved {
		t.Fatalf("crashing mux worker lost the instance: %+v", got.Stats)
	}
	if got.Stats.RemoteJobs != got.Stats.Partitions {
		t.Errorf("RemoteJobs = %d, want %d (retry should reach the healthy worker)",
			got.Stats.RemoteJobs, got.Stats.Partitions)
	}
}

// TestDistributedMuxReconnectAfterWorkerRestart restarts the worker
// between two diagnoses on one coordinator: the persistent connection
// breaks with the old process, the transport reconnects (after its
// backoff) to the new one, and both runs pin byte-identical repairs.
// Both runs go through the coordinator itself, so they share one body;
// the new connection starts with empty tables, so its first frame must
// carry that body again, or the new worker would refuse every job.
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

	coord := dist.Connect(dist.Config{Mux: true, Logf: t.Logf}, addr)
	defer coord.Close()
	opts := partitionOpts()
	opts.PartitionSolver = coord

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
