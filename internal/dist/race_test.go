package dist

import (
	"context"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/frameconn"
	"repro/internal/query"
	"repro/internal/relation"
)

// TestServerRace has three coordinators, each with its own multiplexed
// connection, diagnose one four-cluster history through a fresh worker
// at once under -race, three times over: their connections arrive
// together, so the handlers build the server's solve slots
// concurrently, and the partition jobs over each body share its plan.
func TestServerRace(t *testing.T) {
	d0, log, complaints := raceInstance(t, 4)
	opt := core.Options{Algorithm: core.Basic, TupleSlicing: true, QuerySlicing: true, Partition: 4, TimeLimit: 30 * time.Second}
	for range 3 {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := &Server{}
		go srv.Serve(l)
		var coords []*Coordinator
		var ops []func()
		for range 3 {
			coord := Connect(Config{}, l.Addr().String())
			coords = append(coords, coord)
			ops = append(ops, func() { coord.Diagnose(d0, log, complaints, opt) })
		}
		hammer(1, ops...)
		for _, coord := range coords {
			coord.Close()
		}
		srv.Close()
	}
}

// TestEncMemoRace runs two diagnoses of different histories at once
// under -race over one coordinator, each through its own per-diagnosis
// Solver, so their concurrent partition jobs share the coordinator's
// cursor and job IDs while each mints body IDs from its own encoding
// memo. A body ID must name one encoding only: a job naming a body
// another job carried differently would be solved over the wrong
// history on a mux worker.
func TestEncMemoRace(t *testing.T) {
	bt := &bodyTransport{t: t, bodies: make(map[uint64]bodyEncoding)}
	coord := NewCoordinator(Config{}, bt, bt)
	var ops []func()
	for _, clusters := range []int{3, 4} {
		d0, log, complaints := raceInstance(t, clusters)
		opt := core.Options{Algorithm: core.Basic, TupleSlicing: true, QuerySlicing: true, Partition: 4,
			TimeLimit: 30 * time.Second}
		ops = append(ops, func() {
			opt := opt
			opt.PartitionSolver = coord.Solver()
			core.Diagnose(d0, log, complaints, opt)
		})
	}
	hammer(3, ops...)
	if _, zero := bt.bodies[0]; zero || len(bt.bodies) < 2 {
		t.Errorf("%d body IDs for two histories, zero among them: %v", len(bt.bodies), zero)
	}
}

// bodyEncoding is the identity of one body's wire encoding.
type bodyEncoding struct {
	d0  *wireTable
	log *string
}

// bodyTransport solves in process, recording the encoding every body
// ID was carried with and failing the test when an ID comes with two.
type bodyTransport struct {
	t      *testing.T
	mu     sync.Mutex
	bodies map[uint64]bodyEncoding
}

func (b *bodyTransport) Do(ctx context.Context, job *Job) (*Result, error) {
	enc := bodyEncoding{d0: job.D0, log: &job.Log[0]}
	b.mu.Lock()
	if prev, ok := b.bodies[job.Body]; ok && prev != enc {
		b.t.Errorf("body %d carried with two encodings", job.Body)
	}
	b.bodies[job.Body] = enc
	b.mu.Unlock()
	return InProc{}.Do(ctx, job)
}
func (*bodyTransport) Addr() string { return "body-check" }
func (*bodyTransport) Close() error { return nil }

// raceInstance is the partition bench workload: `clusters` independent
// complaint components, one corrupted query each.
func raceInstance(t *testing.T, clusters int) (*relation.Table, []query.Query, []core.Complaint) {
	t.Helper()
	w, corrupt, err := bench.PartitionClusters(clusters, 5, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := w.MakeInstance(corrupt...)
	if err != nil {
		t.Fatal(err)
	}
	return in.W.D0, in.Dirty, in.Complaints
}

// TestMuxTransportRace streams jobs over a mux transport from six
// goroutines under -race while its worker hangs up every fifth job, so
// the link breaks, backs off and redials as results arrive; half the
// jobs give up after a millisecond. Then six goroutines send to a worker
// that is not there, so dials fail and back off concurrently, and last,
// ten times over, a transport is closed with results still streaming.
// The jobs carry bodies drawn from more than a connection's slots, so
// each connection's body table is read, filled and evicted by
// concurrent writers. Together they make concurrent accesses of every
// field the transport's mu and writeMu guard.
func TestMuxTransportRace(t *testing.T) {
	var id atomic.Uint64
	d0 := &wireTable{Name: "t", Attrs: []string{"a"}}
	send := func(mt *Client, timeout time.Duration) func() {
		return func() {
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			n := id.Add(1)
			mt.Do(ctx, &Job{Version: WireVersion, ID: n, Body: 1 + n%(bodySlots+2), D0: d0})
		}
	}
	flaky := DialMux(echoWorker(t, 5))
	defer flaky.Close()
	slow, fast := send(flaky, time.Second), send(flaky, time.Millisecond)
	hammer(40, slow, slow, slow, fast, fast, fast)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	dead := DialMux(l.Addr().String())
	defer dead.Close()
	refused := send(dead, time.Second)
	hammer(5, refused, refused, refused, refused, refused, refused)

	steady := echoWorker(t, math.MaxInt)
	for range 10 {
		mt := DialMux(steady)
		job := send(mt, time.Second)
		hammer(20, job, job, job, job, func() { job(); mt.Close() })
	}
}

// echoWorker answers each job frame on a loopback listener at once with
// an empty result of the job's ID, and hangs up a connection after its
// every-th job.
func echoWorker(t *testing.T, every int) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var reg frameconn.Registry
	go reg.Serve(l, func(conn net.Conn) {
		r, w := frameconn.NewReader(conn), frameconn.NewWriter(conn)
		for range every {
			var job Job
			if r.Decode(&job) != nil || w.Encode(&Result{Version: WireVersion, ID: job.ID}) != nil {
				return
			}
		}
	})
	t.Cleanup(func() { reg.Close() })
	return l.Addr().String()
}

// hammer runs each op n times on a goroutine of its own, all starting
// at once and yielding between runs so they interleave, and returns
// when every one is done.
func hammer(n int, ops ...func()) {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, op := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for range n {
				op()
				runtime.Gosched()
			}
		}()
	}
	close(start)
	wg.Wait()
}
