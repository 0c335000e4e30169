package dist_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/query"
	"repro/internal/relation"
)

// benchInstance regenerates the partition bench workload (the
// generator behind benchmark/'s fleet_partitioned): `clusters`
// independent complaint components, one corrupted query each.
func benchInstance(t testing.TB, clusters int) (*relation.Table, []query.Query, []core.Complaint) {
	t.Helper()
	w, corruptIdx, err := bench.PartitionClusters(clusters, 5, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := w.MakeInstance(corruptIdx...)
	if err != nil {
		t.Fatal(err)
	}
	return in.W.D0, in.Dirty, in.Complaints
}

func partitionOpts() core.Options {
	return core.Options{
		Algorithm:    core.Basic,
		TupleSlicing: true,
		QuerySlicing: true,
		Partition:    2,
		TimeLimit:    30 * time.Second,
	}
}

// repairFingerprint renders a repair to bytes: the full repaired log as
// SQL plus the changed set, distance, and verification verdict. Two
// repairs with equal fingerprints are byte-identical for every caller-
// visible purpose.
func repairFingerprint(sch *relation.Schema, rep *core.Repair) string {
	var b strings.Builder
	for _, q := range rep.Log {
		b.WriteString(q.String(sch))
		b.WriteString(";\n")
	}
	fmt.Fprintf(&b, "changed=%v distance=%.9f resolved=%v", rep.Changed, rep.Distance, rep.Resolved)
	return b.String()
}

// startWorker serves real diagnosis jobs on a loopback listener.
func startWorker(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &dist.Server{Logf: t.Logf}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String()
}

// startCrashingWorker accepts connections, reads the complete job, then
// drops the connection without answering — a worker killed mid-solve,
// from the coordinator's point of view.
func startCrashingWorker(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				var job dist.Job
				_ = json.NewDecoder(conn).Decode(&job) // take the job...
				conn.Close()                           // ...and die mid-solve
			}(conn)
		}
	}()
	return l.Addr().String()
}

// startBlackHoleWorker accepts the job and never answers — a hung
// worker the coordinator can only escape via its per-job timeout.
func startBlackHoleWorker(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { close(done); l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				var job dist.Job
				_ = json.NewDecoder(conn).Decode(&job)
				<-done // hold the connection open, never reply
			}(conn)
		}
	}()
	return l.Addr().String()
}

// localReference solves the instance with plain local partitioned
// diagnosis — the semantics every distributed configuration must match.
func localReference(t *testing.T, d0 *relation.Table, log []query.Query,
	complaints []core.Complaint) *core.Repair {
	t.Helper()
	rep, err := core.Diagnose(d0, log, complaints, partitionOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resolved {
		t.Fatalf("setup: local partitioned diagnosis unresolved: %+v", rep.Stats)
	}
	return rep
}

func TestDistributedInProcMatchesLocal(t *testing.T) {
	d0, log, complaints := benchInstance(t, 4)
	want := localReference(t, d0, log, complaints)

	coord := dist.NewCoordinator(dist.Config{Logf: t.Logf}, dist.InProc{}, dist.InProc{})
	defer coord.Close()
	got, err := coord.Diagnose(d0, log, complaints, partitionOpts())
	if err != nil {
		t.Fatal(err)
	}
	sch := d0.Schema()
	if w, g := repairFingerprint(sch, want), repairFingerprint(sch, got); w != g {
		t.Errorf("in-proc distributed repair differs from local:\n got:\n%s\nwant:\n%s", g, w)
	}
	if got.Stats.RemoteJobs != got.Stats.Partitions {
		t.Errorf("RemoteJobs = %d, want every partition (%d) dispatched",
			got.Stats.RemoteJobs, got.Stats.Partitions)
	}
}

// TestDistributedLoopbackTCP is the end-to-end acceptance check: two
// real workers on loopback TCP, the partition bench workload, and a
// repair byte-identical to local partitioned diagnosis.
func TestDistributedLoopbackTCP(t *testing.T) {
	d0, log, complaints := benchInstance(t, 4)
	want := localReference(t, d0, log, complaints)

	coord := dist.Connect(dist.Config{Logf: t.Logf}, startWorker(t), startWorker(t))
	defer coord.Close()
	got, err := coord.Diagnose(d0, log, complaints, partitionOpts())
	if err != nil {
		t.Fatal(err)
	}
	sch := d0.Schema()
	if w, g := repairFingerprint(sch, want), repairFingerprint(sch, got); w != g {
		t.Errorf("distributed repair differs from local:\n got:\n%s\nwant:\n%s", g, w)
	}
	if got.Stats.Partitions != 4 {
		t.Errorf("Stats.Partitions = %d, want 4", got.Stats.Partitions)
	}
	if got.Stats.RemoteJobs != 4 {
		t.Errorf("Stats.RemoteJobs = %d, want 4 (healthy fleet solves everything remotely)",
			got.Stats.RemoteJobs)
	}
	// Repairs that came back over the wire are merged onto the caller's
	// log, so Rewritten is as exact as in process: it holds everything
	// that changed, and the rest is the input's own, bit for bit.
	for _, i := range got.Changed {
		if !slices.Contains(got.Rewritten, i) {
			t.Errorf("Changed has %d, Rewritten %v does not", i, got.Rewritten)
		}
	}
	for i, q := range got.Log {
		if slices.Contains(got.Rewritten, i) {
			continue
		}
		if !slices.EqualFunc(q.Params(), log[i].Params(), func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		}) {
			t.Errorf("statement %d is outside Rewritten %v but differs from the input", i, got.Rewritten)
		}
	}
	// The coordinator plans once; each worker plans its own job once.
	if got.Stats.PlanPasses != 1+got.Stats.RemoteJobs {
		t.Errorf("Stats.PlanPasses = %d, want %d (1 local + 1 per remote job)",
			got.Stats.PlanPasses, 1+got.Stats.RemoteJobs)
	}
}

// TestDistributedWorkerKilledMidRun kills one of two workers mid-solve
// (it reads each job, then drops the connection). In-flight jobs on the
// broken connection fail as transport errors and retry on the healthy
// worker, so the repair must still be byte-identical to the local
// reference and nothing may be lost.
func TestDistributedWorkerKilledMidRun(t *testing.T) {
	d0, log, complaints := benchInstance(t, 4)
	want := localReference(t, d0, log, complaints)

	coord := dist.Connect(dist.Config{Logf: t.Logf},
		startWorker(t), startCrashingWorker(t))
	defer coord.Close()
	got, err := coord.Diagnose(d0, log, complaints, partitionOpts())
	if err != nil {
		t.Fatal(err)
	}
	sch := d0.Schema()
	if w, g := repairFingerprint(sch, want), repairFingerprint(sch, got); w != g {
		t.Errorf("repair with a crashing worker differs from local:\n got:\n%s\nwant:\n%s", g, w)
	}
	if !got.Resolved {
		t.Fatalf("crashing worker lost the instance: %+v", got.Stats)
	}
	// A retry must land on a *different* worker than the one that
	// failed: with one healthy and one crashing worker, every job
	// reaches the healthy worker, so nothing falls back local.
	if got.Stats.RemoteJobs != got.Stats.Partitions {
		t.Errorf("RemoteJobs = %d, want %d (retry should reach the healthy worker)",
			got.Stats.RemoteJobs, got.Stats.Partitions)
	}
}

// TestDistributedExhaustedBudgetFallsThrough pins the budget semantics:
// a subproblem whose TotalTimeLimit is already (effectively) spent must
// come back as the engine's "total-time-limit" outcome, not a local
// solve on borrowed time.
func TestDistributedExhaustedBudgetFallsThrough(t *testing.T) {
	d0, log, complaints := benchInstance(t, 4)
	coord := dist.NewCoordinator(dist.Config{Logf: t.Logf}) // empty fleet: straight to fallback
	defer coord.Close()
	opts := partitionOpts()
	opts.Candidates = []int{0}
	opts.TotalTimeLimit = time.Nanosecond
	rep, err := coord.Solver().SolvePartition(core.Subproblem{
		D0: d0, Log: log, Complaints: complaints, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resolved {
		t.Error("exhausted budget still produced a resolved repair")
	}
	if rep.Stats.LastStatus != "total-time-limit" {
		t.Errorf("LastStatus = %q, want total-time-limit", rep.Stats.LastStatus)
	}
}

// TestDistributedTimeoutFallsBackLocal points the coordinator at a fleet
// of one hung worker: every job must time out and fall back to the local
// engine, still producing the reference repair.
func TestDistributedTimeoutFallsBackLocal(t *testing.T) {
	d0, log, complaints := benchInstance(t, 4)
	want := localReference(t, d0, log, complaints)

	coord := dist.Connect(dist.Config{JobTimeout: 300 * time.Millisecond, Logf: t.Logf},
		startBlackHoleWorker(t))
	defer coord.Close()
	got, err := coord.Diagnose(d0, log, complaints, partitionOpts())
	if err != nil {
		t.Fatal(err)
	}
	sch := d0.Schema()
	if w, g := repairFingerprint(sch, want), repairFingerprint(sch, got); w != g {
		t.Errorf("timeout-fallback repair differs from local:\n got:\n%s\nwant:\n%s", g, w)
	}
	if got.Stats.RemoteJobs != 0 {
		t.Errorf("Stats.RemoteJobs = %d, want 0 (every job timed out)", got.Stats.RemoteJobs)
	}
	if coord.LocalFallbacks() != got.Stats.Partitions {
		t.Errorf("LocalFallbacks = %d, want %d", coord.LocalFallbacks(), got.Stats.Partitions)
	}
}

// TestDistributedVersionSkewFallsBackLocal simulates a worker built from
// an incompatible tree, newer or older: it answers every job with
// another protocol version, which the coordinator must reject and solve
// locally.
func TestDistributedVersionSkewFallsBackLocal(t *testing.T) {
	d0, log, complaints := benchInstance(t, 4)
	want := localReference(t, d0, log, complaints)
	sch := d0.Schema()

	for _, v := range []int{dist.WireVersion + 1, dist.WireVersion - 1} {
		coord := dist.NewCoordinator(dist.Config{Logf: t.Logf}, answerTransport(func(job *dist.Job) *dist.Result {
			return &dist.Result{Version: v, ID: job.ID}
		}))
		got, err := coord.Diagnose(d0, log, complaints, partitionOpts())
		if err != nil {
			t.Fatal(err)
		}
		if w, g := repairFingerprint(sch, want), repairFingerprint(sch, got); w != g {
			t.Errorf("v%d skew fallback repair differs from local:\n got:\n%s\nwant:\n%s", v, g, w)
		}
		if got.Stats.RemoteJobs != 0 {
			t.Errorf("v%d: Stats.RemoteJobs = %d, want 0 (all results rejected)", v, got.Stats.RemoteJobs)
		}
		if coord.LocalFallbacks() != got.Stats.Partitions {
			t.Errorf("v%d: LocalFallbacks = %d, want %d", v, coord.LocalFallbacks(), got.Stats.Partitions)
		}
		coord.Close()
	}
}

// TestDistributedUnresolvedWorkerNotTrusted simulates a degraded worker
// (e.g. capped with -max-timelimit below the solve's needs) that
// answers every job with a well-formed but unresolved result. The
// coordinator must not accept it as final: the job falls back to the
// local engine, which resolves it — the no-lost-instances guarantee.
func TestDistributedUnresolvedWorkerNotTrusted(t *testing.T) {
	d0, log, complaints := benchInstance(t, 4)
	want := localReference(t, d0, log, complaints)

	// The identity log, unresolved: what a budget-capped worker returns
	// when its solver gives up.
	coord := dist.NewCoordinator(dist.Config{Logf: t.Logf}, answerTransport(func(job *dist.Job) *dist.Result {
		return &dist.Result{Version: dist.WireVersion, ID: job.ID, Resolved: false}
	}))
	defer coord.Close()
	got, err := coord.Diagnose(d0, log, complaints, partitionOpts())
	if err != nil {
		t.Fatal(err)
	}
	sch := d0.Schema()
	if w, g := repairFingerprint(sch, want), repairFingerprint(sch, got); w != g {
		t.Errorf("capped-worker fallback repair differs from local:\n got:\n%s\nwant:\n%s", g, w)
	}
	if got.Stats.RemoteJobs != 0 {
		t.Errorf("Stats.RemoteJobs = %d, want 0 (unresolved results must not count)", got.Stats.RemoteJobs)
	}
	if coord.LocalFallbacks() != got.Stats.Partitions {
		t.Errorf("LocalFallbacks = %d, want %d", coord.LocalFallbacks(), got.Stats.Partitions)
	}
}

// TestDistributedMalformedResultFallsBackLocal answers every job with a
// resolved result that is no repair of the job: a changed index outside
// the log (either side), a parameter vector count that is not the
// changed count, a vector of the wrong arity for its statement, and a
// changed statement outside the job's candidates (another partition's).
// Each must be rejected like a version skew: every partition solves
// locally and the repair is the local one, byte for byte.
func TestDistributedMalformedResultFallsBackLocal(t *testing.T) {
	d0, log, complaints := benchInstance(t, 4)
	want := localReference(t, d0, log, complaints)
	sch := d0.Schema()
	arity := len(log[3].Params())

	for _, tc := range []struct {
		name    string
		changed []int
		params  [][]float64
		// outside, when set, answers each job with a shifted repair of
		// the last statement outside its candidates instead.
		outside bool
	}{
		{name: "changed past the log", changed: []int{999}, params: [][]float64{make([]float64, arity)}},
		{name: "negative changed", changed: []int{-1}, params: [][]float64{make([]float64, arity)}},
		{name: "params count", changed: []int{3}},
		{name: "wrong arity", changed: []int{3}, params: [][]float64{make([]float64, arity+1)}},
		{name: "changed outside the candidates", outside: true},
	} {
		coord := dist.NewCoordinator(dist.Config{Logf: t.Logf}, answerTransport(func(job *dist.Job) *dist.Result {
			changed, params := tc.changed, tc.params
			if tc.outside {
				q := len(log) - 1
				for slices.Contains(job.Candidates, q) {
					q--
				}
				p := log[q].Params()
				p[len(p)-1]++
				changed, params = []int{q}, [][]float64{p}
			}
			return &dist.Result{Version: dist.WireVersion, ID: job.ID,
				Changed: changed, Params: params, Resolved: true}
		}))
		got, err := coord.Diagnose(d0, log, complaints, partitionOpts())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if w, g := repairFingerprint(sch, want), repairFingerprint(sch, got); w != g {
			t.Errorf("%s: fallback repair differs from local:\n got:\n%s\nwant:\n%s", tc.name, g, w)
		}
		if got.Stats.RemoteJobs != 0 {
			t.Errorf("%s: Stats.RemoteJobs = %d, want 0 (all results rejected)", tc.name, got.Stats.RemoteJobs)
		}
		if coord.LocalFallbacks() != got.Stats.Partitions {
			t.Errorf("%s: LocalFallbacks = %d, want %d", tc.name, coord.LocalFallbacks(), got.Stats.Partitions)
		}
		coord.Close()
	}
}

// answerTransport answers every job with the result the function makes
// of it, without solving anything.
type answerTransport func(job *dist.Job) *dist.Result

func (a answerTransport) Do(_ context.Context, job *dist.Job) (*dist.Result, error) {
	return a(job), nil
}
func (answerTransport) Addr() string { return "fake" }
func (answerTransport) Close() error { return nil }
