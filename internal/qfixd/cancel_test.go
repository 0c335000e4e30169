package qfixd

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/testcheck"
	"repro/internal/workload"
)

// The cancellation tests: a request whose client is gone leaves the
// admission queue, a shutdown whose context has ended returns without
// waiting for the diagnosis in flight, and closing the server and the
// service leaves no goroutine behind.

// cancelGuard bounds how long a wait that should end with its context
// may take before the test calls it hung.
const cancelGuard = 10 * time.Second

// waitFor polls cond until it holds, failing the test after cancelGuard.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(cancelGuard)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("after %v: %s", cancelGuard, what)
		}
		time.Sleep(time.Millisecond)
	}
}

// serve runs a server for svc on a loopback listener; stop closes the
// server and waits for Serve to return.
func serve(t *testing.T, svc *Service) (srv *Server, addr string, stop func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv = NewServer(svc)
	served := make(chan struct{})
	go func() {
		srv.Serve(l)
		close(served)
	}()
	return srv, l.Addr().String(), func() {
		srv.Close()
		<-served
	}
}

// heavyTenant creates a tenant over a generator instance whose joint
// MILP Basic does not solve within seconds, so a diagnosis of it is
// still in flight when the test acts; should the instance ever become
// easy, the diagnosis answers first and the test fails. It returns the
// instance's complaints.
func heavyTenant(t *testing.T, svc *Service, name string) []core.Complaint {
	t.Helper()
	w, err := workload.Generate(workload.Config{ND: 118, Nq: 34, Range: 11, Seed: 1016})
	if err != nil {
		t.Fatal(err)
	}
	in, err := w.MakeInstance(23)
	if err != nil {
		t.Fatal(err)
	}
	sch := in.W.Schema
	var rows [][]float64
	in.W.D0.Rows(func(tp relation.Tuple) { rows = append(rows, tp.Values) })
	sql := make([]string, len(in.Dirty))
	for i, q := range in.Dirty {
		sql[i] = q.String(sch)
	}
	if err := svc.Create(name, sch.Name(), "id", sch.Attrs(), rows); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Append(name, sql); err != nil {
		t.Fatal(err)
	}
	return in.Complaints
}

// A diagnose request queued behind the only slot leaves the queue when
// its client disconnects, so the slot freed later goes back to the pool
// instead of to a request nobody will read.
func TestQueuedRequestLeavesWithItsClient(t *testing.T) {
	base := runtime.NumGoroutine()
	svc := NewService(Config{Dir: t.TempDir(), MaxInflight: -1})
	_, addr, stop := serve(t, svc)
	createTaxTenant(t, svc, "acme")
	if err := svc.adm.acquire(context.Background(), "other"); err != nil {
		t.Fatal(err) // hold the only slot
	}
	queued := func() int {
		svc.adm.mu.Lock()
		defer svc.adm.mu.Unlock()
		return len(svc.adm.queues["acme"])
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	req, err := json.Marshal(&Request{Version: WireVersion, ID: 1, Op: OpDiagnose, Tenant: "acme",
		Complaints: []core.Complaint{{TupleID: 1, Exists: true, Values: []float64{100, 10, 91}}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(append(req, '\n')); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the diagnose request never queued", func() bool { return queued() == 1 })
	conn.Close()
	waitFor(t, "the departed client's request still holds its queue place", func() bool { return queued() == 0 })

	svc.adm.release()
	svc.adm.mu.Lock()
	free := svc.adm.free
	svc.adm.mu.Unlock()
	if free != 1 {
		t.Errorf("after release %d slots are free, want 1", free)
	}
	stop()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	testcheck.Goroutines(t, base)
}

// Shutdown under a context that has already ended returns that
// context's error at once, cutting the connection of a diagnosis still
// in flight instead of waiting for its repair; closing the service
// afterwards waits the diagnosis out and leaves nothing behind.
func TestShutdownExpiredContextDoesNotWait(t *testing.T) {
	base := runtime.NumGoroutine()
	svc := NewService(Config{Dir: t.TempDir()})
	srv, addr, stop := serve(t, svc)
	complaints := heavyTenant(t, svc, "heavy")
	c, err := DialDaemon(addr)
	if err != nil {
		t.Fatal(err)
	}
	diagnosed := make(chan error, 1)
	go func() {
		_, err := c.Diagnose("heavy", complaints, &DiagnoseOptions{Algorithm: "basic", TimeLimitMS: 3000})
		diagnosed <- err
	}()
	waitFor(t, "the diagnosis never started", func() bool { return mInflight.Value() > 0 })

	ctx, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	start := time.Now()
	err = srv.Shutdown(ctx)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("Shutdown with an expired context took %v", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Shutdown with an expired context = %v, want context.DeadlineExceeded", err)
	}
	select {
	case err := <-diagnosed:
		if err == nil {
			t.Error("the in-flight diagnosis answered across a shutdown that did not wait for it")
		}
	case <-time.After(cancelGuard):
		t.Fatal("the client of a cut connection is still waiting")
	}
	c.Close()
	stop()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	testcheck.Goroutines(t, base)
}
