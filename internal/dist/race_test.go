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

// TestServerRace has three dial-per-job coordinators diagnose one
// four-cluster history through a fresh worker at once under -race,
// three times over: their connections arrive together, so the handlers
// build the server's solve slots and decode cache concurrently, and the
// partition jobs look up and store one cache entry.
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
		coord := Connect(Config{}, l.Addr().String())
		diagnose := func() { coord.Diagnose(d0, log, complaints, opt) }
		hammer(1, diagnose, diagnose, diagnose)
		coord.Close()
		srv.Close()
	}
}

// TestEncMemoRace installs one coordinator itself as the partition
// solver of two diagnoses of different histories running at once under
// -race, so their concurrent partition jobs share, and keep replacing,
// its encoding memo.
func TestEncMemoRace(t *testing.T) {
	coord := NewCoordinator(Config{}, InProc{}, InProc{})
	var ops []func()
	for _, clusters := range []int{3, 4} {
		d0, log, complaints := raceInstance(t, clusters)
		opt := core.Options{Algorithm: core.Basic, TupleSlicing: true, QuerySlicing: true, Partition: 4,
			TimeLimit: 30 * time.Second, PartitionSolver: coord}
		ops = append(ops, func() { core.Diagnose(d0, log, complaints, opt) })
	}
	hammer(3, ops...)
}

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
// Together they make concurrent accesses of every field the transport's
// mu guards.
func TestMuxTransportRace(t *testing.T) {
	var id atomic.Uint64
	send := func(mt *MuxTransport, timeout time.Duration) func() {
		return func() {
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			mt.Do(ctx, &Job{Version: WireVersion, ID: id.Add(1)})
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
		r, w := frameconn.NewReader(conn), frameconn.NewWriter(conn, true)
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
