package qfixd

import (
	"bufio"
	"encoding/json"
	"net"
	"runtime"
	"sync"
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
		svc := NewService(Config{Dir: t.TempDir(), Workers: fleet, Partition: c.partition})
		opt := svc.options(c.req)
		if opt.Partition != c.want {
			t.Errorf("%s: Partition = %d, want %d", c.name, opt.Partition, c.want)
		}
		if opt.PartitionSolver == nil {
			t.Errorf("%s: options lack the fleet's solver", c.name)
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

// A daemon's fleet takes one in-flight solve per partition however few
// cores the daemon has: a partition waiting on a remote worker does not
// hold a local slot. Every worker sits behind a gate that holds each
// solve's answer until the gate has seen all of the diagnosis's solves
// arrive (or a deadline passes), so they all arrive only if they were
// all in flight at once. That holds for the fleet's own width and for a
// width the request names, which is the daemon's to clamp only when it
// solves the partitions itself.
func TestDaemonFleetSolvesEveryPartitionAtOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const fleetSize = 4
	w, corrupt, err := bench.PartitionClusters(fleetSize, 5, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := w.MakeInstance(corrupt...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Diagnose(in.W.D0, in.Dirty, in.Complaints, core.Options{
		Algorithm:    core.Incremental,
		K:            1,
		TupleSlicing: true,
		QuerySlicing: true,
		Partition:    fleetSize,
		TimeLimit:    60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !want.Resolved || want.Stats.Partitions != fleetSize {
		t.Fatalf("local reference: resolved=%v over %d partitions, want a resolved repair over %d",
			want.Resolved, want.Stats.Partitions, fleetSize)
	}
	sch := in.W.D0.Schema()
	wantLog := make([]string, len(want.Log))
	for i, q := range want.Log {
		wantLog[i] = q.String(sch)
	}
	for _, c := range []struct {
		name string
		opts *DiagnoseOptions
	}{
		// No Config.Partition and no width in the request: the width is
		// the fleet's, one partition per worker, four times the daemon's
		// GOMAXPROCS.
		{"fleet width", nil},
		{"requested width", &DiagnoseOptions{Partition: fleetSize}},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			g := &solveGate{want: fleetSize, all: make(chan struct{}), timeout: make(chan struct{})}
			timer := time.AfterFunc(10*time.Second, func() { close(g.timeout) })
			defer timer.Stop()
			var workers []*dist.Server
			var addrs []string
			var stops []func()
			for range fleetSize {
				l, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				srv := &dist.Server{MaxInflight: fleetSize, Logf: t.Logf}
				go srv.Serve(l)
				workers = append(workers, srv)
				addr, stop := g.front(t, l.Addr().String())
				addrs = append(addrs, addr)
				stops = append(stops, stop)
			}
			svc := NewService(Config{Dir: t.TempDir(), Workers: addrs, Logf: t.Logf})
			_, addr, stop := serve(t, svc)
			cl, err := DialDaemon(addr)
			if err != nil {
				t.Fatal(err)
			}
			var rows [][]float64
			in.W.D0.Rows(func(tp relation.Tuple) { rows = append(rows, tp.Values) })
			sql := make([]string, len(in.Dirty))
			for i, q := range in.Dirty {
				sql[i] = q.String(sch)
			}
			if err := cl.Create("fleet", sch.Name(), "", sch.Attrs(), rows); err != nil {
				t.Fatal(err)
			}
			if err := cl.Append("fleet", sql...); err != nil {
				t.Fatal(err)
			}
			resp, err := cl.Diagnose("fleet", in.Complaints, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			checkRepair(t, "fleet", resp, wantLog, want.Changed, want.Distance)
			if st := resp.Stats; st == nil || st.RemoteJobs != fleetSize {
				t.Errorf("stats %+v: want %d remote jobs", st, fleetSize)
			}
			g.mu.Lock()
			peak := g.peak
			g.mu.Unlock()
			if peak != fleetSize {
				t.Errorf("at most %d of the %d partition solves were in flight at once at GOMAXPROCS %d, want all of them",
					peak, fleetSize, runtime.GOMAXPROCS(0))
			}

			cl.Close()
			stop()
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}
			for _, stop := range stops {
				stop()
			}
			for _, srv := range workers {
				srv.Close()
			}
			testcheck.Goroutines(t, base)
		})
	}
}

// solveGate fronts workers with loopback proxies that forward every
// frame as is, except that a solve's answer is held until the gate has
// seen `want` solve frames arrive or timeout closes. It records the most
// solves in flight at once: arrived at a proxy, answer not yet passed on.
type solveGate struct {
	want    int
	all     chan struct{} // closed when the want-th solve arrives
	timeout chan struct{}

	mu                   sync.Mutex
	seen, inflight, peak int // guarded by mu
}

func (g *solveGate) arrive() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.seen++
	g.inflight++
	g.peak = max(g.peak, g.inflight)
	if g.seen == g.want {
		close(g.all)
	}
}

func (g *solveGate) answer() {
	select {
	case <-g.all:
	case <-g.timeout:
	}
	g.mu.Lock()
	g.inflight--
	g.mu.Unlock()
}

// front starts a proxy to backend and returns its address and a stop
// that closes its listener and waits for its connections to end.
func (g *solveGate) front(t *testing.T, backend string) (string, func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", backend)
			if err != nil {
				conn.Close()
				continue
			}
			var mu sync.Mutex
			solves := map[uint64]bool{}
			// pipe copies frames from src to dst until either side ends,
			// then closes both, which ends the other direction too.
			pipe := func(src, dst net.Conn, onFrame func(id uint64, op string)) {
				defer wg.Done()
				defer src.Close()
				defer dst.Close()
				br := bufio.NewReader(src)
				for {
					line, err := br.ReadBytes('\n')
					if err != nil {
						return
					}
					var f struct {
						ID uint64 `json:"id"`
						Op string `json:"op"`
					}
					if json.Unmarshal(line, &f) == nil {
						onFrame(f.ID, f.Op)
					}
					if _, err := dst.Write(line); err != nil {
						return
					}
				}
			}
			wg.Add(2)
			go pipe(conn, up, func(id uint64, op string) {
				if op == "solve" {
					mu.Lock()
					solves[id] = true
					mu.Unlock()
					g.arrive()
				}
			})
			go pipe(up, conn, func(id uint64, _ string) {
				mu.Lock()
				solve := solves[id]
				delete(solves, id)
				mu.Unlock()
				if solve {
					g.answer()
				}
			})
		}
	}()
	return l.Addr().String(), func() {
		l.Close()
		wg.Wait()
	}
}
