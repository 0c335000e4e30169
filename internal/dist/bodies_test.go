package dist_test

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/relation"
)

// carriedFrames counts, process-wide, the job frames a worker read with
// their body in them (qfix_worker_cache_misses_total).
func carriedFrames() int64 {
	return obs.Default().Counter("qfix_worker_cache_misses_total", "").Value()
}

// TestBodyTablesRace has one mux worker serve three histories, each
// diagnosed four times at once, every diagnosis through a Solver() of
// its own, under -race. The twelve bodies in flight together outnumber
// the BodySlots each end of the connection holds, so bodies are evicted
// while later jobs still name them and must be carried again. The two
// tables must never disagree: every repair is the local one, byte for
// byte, no job gets an unknown-body answer (with one worker it would
// fall back to the local engine), and every remote job either carried
// its body or counted a hit.
func TestBodyTablesRace(t *testing.T) {
	type history struct {
		d0         *relation.Table
		log        []query.Query
		complaints []core.Complaint
		want       string
	}
	var hs []history
	for _, clusters := range []int{3, 4, 5} {
		d0, log, complaints := benchInstance(t, clusters)
		want := localReference(t, d0, log, complaints)
		hs = append(hs, history{d0, log, complaints, repairFingerprint(d0.Schema(), want)})
	}
	const perHistory = 4
	if len(hs)*perHistory <= dist.BodySlots {
		t.Fatalf("%d bodies fit the %d slots; nothing would be evicted", len(hs)*perHistory, dist.BodySlots)
	}

	coord := dist.Connect(dist.Config{Logf: t.Logf}, startWorker(t))
	defer coord.Close()
	before := carriedFrames()
	var remote, hits atomic.Int64
	var wg sync.WaitGroup
	for _, h := range hs {
		for range perHistory {
			wg.Add(1)
			go func() {
				defer wg.Done()
				opts := partitionOpts()
				opts.Partition = 4
				opts.PartitionSolver = coord.Solver()
				got, err := core.Diagnose(h.d0, h.log, h.complaints, opts)
				if err != nil {
					t.Error(err)
					return
				}
				if g := repairFingerprint(h.d0.Schema(), got); g != h.want {
					t.Errorf("repair differs from local:\n got:\n%s\nwant:\n%s", g, h.want)
				}
				remote.Add(int64(got.Stats.RemoteJobs))
				hits.Add(int64(got.Stats.WorkerCacheHits))
			}()
		}
	}
	wg.Wait()

	if n := coord.LocalFallbacks(); n != 0 {
		t.Errorf("%d jobs fell back to the local engine; the worker refused a body the coordinator thought it held", n)
	}
	carried := carriedFrames() - before
	if bodies := int64(len(hs) * perHistory); carried < bodies {
		t.Errorf("%d frames carried a body for %d bodies", carried, bodies)
	}
	if hits.Load() != remote.Load()-carried {
		t.Errorf("WorkerCacheHits = %d, want remote jobs %d minus body-carrying frames %d",
			hits.Load(), remote.Load(), carried)
	}
}

// bodySubproblem is the i-th of a family of one-row subproblems whose
// repairs all differ: the UPDATE's threshold must come down to the
// row's value 100+i.
func bodySubproblem(i int) core.Subproblem {
	sch := relation.MustSchema("T", []string{"a"}, "")
	d0 := relation.NewTable(sch)
	d0.MustInsert(float64(100 + i))
	return core.Subproblem{
		D0: d0,
		Log: []query.Query{query.NewUpdate(
			[]query.SetClause{{Attr: 0, Expr: query.ConstExpr(5)}},
			query.AttrPred(0, query.GE, 200))},
		Complaints: []core.Complaint{{TupleID: 1, Exists: true, Values: []float64{5}}},
		Options:    core.Options{Algorithm: core.Basic, TimeLimit: 30 * time.Second},
	}
}

// A body still held by a connection is named, and one evicted is
// carried again by the next job that names it: over one mux
// connection, BodySlots+2 bodies in turn, then the oldest body still
// held and the newest one evicted — the two a table one slot smaller or
// larger than the worker's would get wrong. Every answer is its own
// subproblem's local repair.
func TestBodyEvictedThenNamedAgain(t *testing.T) {
	mt := dist.DialMux(startWorker(t))
	defer mt.Close()
	n := dist.BodySlots + 2
	var jobs []*dist.Job
	var want []*dist.Result
	for i := range n {
		sub := bodySubproblem(i)
		job, err := dist.EncodeJob(uint64(i+1), sub)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.Diagnose(sub.D0, sub.Log, sub.Complaints, sub.Options)
		if err != nil {
			t.Fatal(err)
		}
		res, err := dist.EncodeResult(job.ID, rep, nil)
		if err != nil {
			t.Fatal(err)
		}
		jobs, want = append(jobs, job), append(want, res)
	}
	var order []int
	for i := range n {
		order = append(order, i)
	}
	order = append(order, n-dist.BodySlots, n-dist.BodySlots-1)

	carried, hitsBefore := carriedFrames(), obs.Default().Counter("qfix_worker_cache_hits_total", "").Value()
	for k, i := range order {
		job := *jobs[i]
		job.ID = uint64(100 + k)
		res, err := mt.Do(context.Background(), &job)
		if err != nil {
			t.Fatalf("job %d (body of subproblem %d): %v", k, i, err)
		}
		w := want[i]
		if res.Err != "" || res.Distance != w.Distance || res.Resolved != w.Resolved ||
			!reflect.DeepEqual(res.Changed, w.Changed) || !reflect.DeepEqual(res.Params, w.Params) {
			t.Errorf("job %d (body of subproblem %d): err=%q changed=%v params=%v distance=%v, want changed=%v params=%v distance=%v",
				k, i, res.Err, res.Changed, res.Params, res.Distance, w.Changed, w.Params, w.Distance)
		}
	}
	if got := carriedFrames() - carried; got != int64(n+1) {
		t.Errorf("%d frames carried a body, want %d: each body once, and the evicted one again", got, n+1)
	}
	if got := obs.Default().Counter("qfix_worker_cache_hits_total", "").Value() - hitsBefore; got != 1 {
		t.Errorf("%d frames named a held body, want 1 (the oldest one held)", got)
	}
}

// carryCheck passes every job on to its transport after checking that
// the job carries its whole body.
type carryCheck struct {
	dist.Transport
	t      *testing.T
	logLen int
}

func (c carryCheck) Do(ctx context.Context, job *dist.Job) (*dist.Result, error) {
	if job.D0 == nil || len(job.Log) != c.logLen {
		c.t.Errorf("job %d handed to %s without its body", job.ID, c.Addr())
	}
	return c.Transport.Do(ctx, job)
}

// The in-process transport starts every job on an empty table, so
// every job carries its body and no job counts a hit; the repairs are
// the local ones.
func TestDialAndInProcCarryEveryBody(t *testing.T) {
	d0, log, complaints := benchInstance(t, 4)
	want := repairFingerprint(d0.Schema(), localReference(t, d0, log, complaints))
	coord := dist.NewCoordinator(dist.Config{Logf: t.Logf},
		carryCheck{dist.InProc{}, t, len(log)}, carryCheck{dist.InProc{}, t, len(log)})
	got, err := coord.Diagnose(d0, log, complaints, partitionOpts())
	coord.Close()
	if err != nil {
		t.Fatal(err)
	}
	if g := repairFingerprint(d0.Schema(), got); g != want {
		t.Errorf("repair differs from local:\n got:\n%s\nwant:\n%s", g, want)
	}
	if got.Stats.RemoteJobs != got.Stats.Partitions || got.Stats.WorkerCacheHits != 0 {
		t.Errorf("%d remote jobs of %d partitions, %d hits; want all remote, no hits",
			got.Stats.RemoteJobs, got.Stats.Partitions, got.Stats.WorkerCacheHits)
	}
}
