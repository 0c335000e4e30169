package qfixd

import (
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/relation"
	"repro/internal/testcheck"
)

// The partition width of a diagnosis over a fleet: the request's own
// width wins, then Config.Partition, and only then Install's default of
// one partition per worker. No worker is dialed: the coordinator
// connects on first dispatch.
func TestServicePartitionWidth(t *testing.T) {
	fleet := []string{"127.0.0.1:1", "127.0.0.1:2"}
	for _, c := range []struct {
		name      string
		partition int
		req       *DiagnoseOptions
		want      int
	}{
		{"config width", 3, nil, 3},
		{"config width, request without one", 3, &DiagnoseOptions{}, 3},
		{"request width", 3, &DiagnoseOptions{Partition: 1}, 1},
		{"fleet size", 0, nil, len(fleet)},
	} {
		svc := NewService(Config{Dir: t.TempDir(), Workers: fleet, Partition: c.partition, PoolWorkers: 1})
		opt := svc.options(c.req)
		if opt.Partition != c.want {
			t.Errorf("%s: Partition = %d, want %d", c.name, opt.Partition, c.want)
		}
		if opt.PartitionSolver == nil || opt.Scheduler == nil {
			t.Errorf("%s: options lack the fleet's solver or the pool", c.name)
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// E2E over a worker fleet: a daemon holding a mux coordinator over two
// loopback qfix-workers answers a multi-cluster history with the repair
// a local diagnosis at the same width computes, byte for byte, with the
// partitions solved remotely and the later jobs on each connection
// naming the body it already holds. Closing everything leaves no
// goroutine behind.
func TestDaemonFleetRepairMatchesLocal(t *testing.T) {
	base := runtime.NumGoroutine()
	w, corrupt, err := bench.PartitionClusters(4, 5, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := w.MakeInstance(corrupt...)
	if err != nil {
		t.Fatal(err)
	}
	sch := in.W.D0.Schema()
	want, err := core.Diagnose(in.W.D0, in.Dirty, in.Complaints, core.Options{
		Algorithm:    core.Incremental,
		K:            1,
		TupleSlicing: true,
		QuerySlicing: true,
		Partition:    2,
		TimeLimit:    60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !want.Resolved || want.Stats.Partitions < 2 {
		t.Fatalf("local reference: resolved=%v over %d partitions, want a resolved repair over 2 or more",
			want.Resolved, want.Stats.Partitions)
	}
	wantLog := make([]string, len(want.Log))
	for i, q := range want.Log {
		wantLog[i] = q.String(sch)
	}

	var workers []*dist.Server
	var addrs []string
	for range 2 {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := &dist.Server{Logf: t.Logf}
		go srv.Serve(l)
		workers = append(workers, srv)
		addrs = append(addrs, l.Addr().String())
	}
	svc := NewService(Config{Dir: t.TempDir(), Workers: addrs, Partition: 2, Logf: t.Logf})
	_, addr, stop := serve(t, svc)
	c, err := DialDaemon(addr)
	if err != nil {
		t.Fatal(err)
	}

	var rows [][]float64
	in.W.D0.Rows(func(tp relation.Tuple) { rows = append(rows, tp.Values) })
	sql := make([]string, len(in.Dirty))
	for i, q := range in.Dirty {
		sql[i] = q.String(sch)
	}
	if err := c.Create("fleet", sch.Name(), "", sch.Attrs(), rows); err != nil {
		t.Fatal(err)
	}
	if err := c.Append("fleet", sql...); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Diagnose("fleet", in.Complaints, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkRepair(t, "fleet", resp, wantLog, want.Changed, want.Distance)
	if st := resp.Stats; st == nil || st.RemoteJobs < 1 || st.WorkerCacheHits < 1 {
		t.Errorf("stats %+v: want at least one remote job and one worker cache hit", st)
	}

	c.Close()
	stop()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	for _, srv := range workers {
		srv.Close()
	}
	testcheck.Goroutines(t, base)
}
