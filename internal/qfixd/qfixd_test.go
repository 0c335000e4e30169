package qfixd

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/sqlparse"
)

// startDaemon runs a Service+Server on a loopback listener and returns
// the service and its address.
func startDaemon(t testing.TB, cfg Config) (*Service, string) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	svc := NewService(cfg)
	srv := NewServer(svc)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return svc, l.Addr().String()
}

func dialDaemon(t testing.TB, addr string) *Client {
	t.Helper()
	c, err := DialDaemon(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// scenario is one tenant's corrupted history: the familiar Taxes
// workload with incomes shifted by off, so distinct tenants carry
// distinct histories and distinct repairs.
type scenario struct {
	rows       [][]float64
	sql        []string
	complaints []core.Complaint
}

func taxScenario(off float64) scenario {
	return scenario{
		rows: [][]float64{
			{9500, 950, 8550},
			{90000 + off, 22500, 67500},
			{86000 + off, 21500, 64500},
			{86500 + off, 21625, 64875},
		},
		sql: []string{
			fmt.Sprintf("UPDATE Taxes SET owed = income * 0.3 WHERE income >= %g", 85700+off), // corrupted
			"INSERT INTO Taxes VALUES (85800, 21450, 0)",
			"UPDATE Taxes SET pay = income - owed",
		},
		complaints: []core.Complaint{
			{TupleID: 3, Exists: true, Values: []float64{86000 + off, 21500, 64500 + off}},
			{TupleID: 4, Exists: true, Values: []float64{86500 + off, 21625, 64875 + off}},
		},
	}
}

var taxAttrs = []string{"income", "owed", "pay"}

// cliRepair computes the repair exactly as a default `qfix` CLI run
// would: the same engine entry with the CLI's default options and the
// same Query.String rendering. This is the byte-identity oracle every
// daemon response is compared against.
func cliRepair(t *testing.T, sc scenario) (log []string, changed []int, distance float64) {
	t.Helper()
	sch := relation.MustSchema("Taxes", taxAttrs, "")
	d0 := relation.NewTable(sch)
	for _, row := range sc.rows {
		d0.MustInsert(row...)
	}
	history := make([]query.Query, len(sc.sql))
	for i, stmt := range sc.sql {
		q, err := sqlparse.Parse(sch, stmt)
		if err != nil {
			t.Fatal(err)
		}
		history[i] = q
	}
	rep, err := core.Diagnose(d0, history, sc.complaints, core.Options{
		Algorithm:    core.Incremental,
		K:            1,
		TupleSlicing: true,
		QuerySlicing: true,
		TimeLimit:    60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resolved {
		t.Fatal("oracle diagnosis did not resolve")
	}
	out := make([]string, len(rep.Log))
	for i, q := range rep.Log {
		out[i] = q.String(sch)
	}
	return out, rep.Changed, rep.Distance
}

// seedTenant creates the tenant over the wire and loads its history
// and staged complaints.
func seedTenant(t *testing.T, c *Client, name string, sc scenario) {
	t.Helper()
	if err := c.Create(name, "Taxes", "", taxAttrs, sc.rows); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(name, sc.sql...); err != nil {
		t.Fatal(err)
	}
	if err := c.Complain(name, sc.complaints); err != nil {
		t.Fatal(err)
	}
}

// checkRepair asserts a daemon response is byte-identical to the CLI
// oracle for the scenario.
func checkRepair(t *testing.T, who string, resp *Response, wantLog []string, wantChanged []int, wantDist float64) {
	t.Helper()
	if !resp.Resolved {
		t.Fatalf("%s: diagnosis did not resolve", who)
	}
	if !reflect.DeepEqual(resp.Log, wantLog) {
		t.Fatalf("%s: repaired log diverges from the CLI run:\n daemon: %q\n cli:    %q",
			who, resp.Log, wantLog)
	}
	if !reflect.DeepEqual(resp.Changed, wantChanged) {
		t.Errorf("%s: changed = %v, want %v", who, resp.Changed, wantChanged)
	}
	if resp.Distance != wantDist {
		t.Errorf("%s: distance = %v, want %v", who, resp.Distance, wantDist)
	}
}

// The core acceptance test: a repair served by the daemon over the
// network is byte-identical to the repair the qfix CLI computes on the
// same history and complaints. It is also a determinism test: repeated
// diagnoses, at GOMAXPROCS 1 and N, each on a fresh tenant so the engine
// runs instead of the memo, carry the same repair and the same counters.
func TestDaemonRepairMatchesCLI(t *testing.T) {
	_, addr := startDaemon(t, Config{})
	c := dialDaemon(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	sc := taxScenario(0)
	wantLog, wantChanged, wantDist := cliRepair(t, sc)
	repeats := 8
	if testing.Short() {
		repeats = 2
	}
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)

	var first string
	for r := 0; r < repeats; r++ {
		runtime.GOMAXPROCS([]int{1, max(procs, 4)}[r%2])
		// Complaints staged via the complain op and complaints sent
		// inline with the diagnose must answer identically.
		name, inline := fmt.Sprintf("acme%d", r), r/2%2 == 1
		var resp *Response
		var err error
		if inline {
			if err := c.Create(name, "Taxes", "", taxAttrs, sc.rows); err != nil {
				t.Fatal(err)
			}
			if err := c.Append(name, sc.sql...); err != nil {
				t.Fatal(err)
			}
			resp, err = c.Diagnose(name, sc.complaints, nil)
		} else {
			seedTenant(t, c, name, sc)
			resp, err = c.Diagnose(name, nil, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		checkRepair(t, fmt.Sprintf("repeat %d inline=%v", r, inline), resp, wantLog, wantChanged, wantDist)
		if resp.Stats == nil {
			t.Fatal("response carries no stats")
		}
		// The daemon resolves the solve options and runs the engine; the
		// solver's work and how each solve ended must repeat. (Core's
		// determinism test compares every counter of the engine.)
		st := resp.Stats
		cs := fmt.Sprintln(st.Rows, st.Vars, st.Binaries, st.BatchesTried, st.RelevantQueries, st.Nodes, st.LPIters,
			st.Refactorizations, st.PresolvedRows, st.LPNumFails, st.LPIterLimits, st.NodeLimitStops, st.TimeLimitStops,
			st.Replays, st.LastStatus)
		if r == 0 {
			first = cs
		} else if cs != first {
			t.Errorf("repeat %d: counters differ from the first diagnosis:\n got %s\nwant %s", r, cs, first)
		}
	}
}

// Concurrent mixed-tenant load: several tenants with distinct
// histories, several clients, diagnoses in flight simultaneously on the
// shared pool — every response must still be byte-identical to its
// tenant's CLI oracle. (Run under -race in CI, this is also the data
// race proof for the resident sharing.)
func TestDaemonConcurrentMixedTenants(t *testing.T) {
	_, addr := startDaemon(t, Config{MaxInflight: 4})
	seedClient := dialDaemon(t, addr)

	const tenants = 4
	const repeats = 3
	type oracle struct {
		log     []string
		changed []int
		dist    float64
	}
	oracles := make(map[string]oracle, tenants)
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		sc := taxScenario(float64(10 * i))
		seedTenant(t, seedClient, name, sc)
		log, changed, dist := cliRepair(t, sc)
		oracles[name] = oracle{log: log, changed: changed, dist: dist}
	}

	// Two clients multiplexing, every tenant diagnosed repeatedly and
	// concurrently.
	clients := []*Client{seedClient, dialDaemon(t, addr)}
	var wg sync.WaitGroup
	errc := make(chan error, tenants*repeats)
	for i := 0; i < tenants; i++ {
		for r := 0; r < repeats; r++ {
			name := fmt.Sprintf("tenant-%d", i)
			c := clients[(i+r)%len(clients)]
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := c.Diagnose(name, nil, nil)
				if err != nil {
					errc <- fmt.Errorf("%s: %w", name, err)
					return
				}
				want := oracles[name]
				if !reflect.DeepEqual(resp.Log, want.log) {
					errc <- fmt.Errorf("%s: repaired log diverges under concurrency:\n daemon: %q\n cli:    %q",
						name, resp.Log, want.log)
					return
				}
				if !reflect.DeepEqual(resp.Changed, want.changed) || resp.Distance != want.dist {
					errc <- fmt.Errorf("%s: changed/distance diverge: %v/%v, want %v/%v",
						name, resp.Changed, resp.Distance, want.changed, want.dist)
				}
			}()
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestDaemonClampsWidths sends a diagnose request asking for 1<<20
// partition workers and LP workers. The daemon must
// answer with the CLI's repair byte for byte, on at most its own width:
// each of at most GOMAXPROCS concurrent solves runs at most GOMAXPROCS
// LP workers, beyond the resident pool.
func TestDaemonClampsWidths(t *testing.T) {
	_, addr := startDaemon(t, Config{})
	c := dialDaemon(t, addr)
	sc := taxScenario(0)
	seedTenant(t, c, "wide", sc)
	wantLog, wantChanged, wantDist := cliRepair(t, sc)
	var resp *Response
	var err error
	peak := peakSchedWorkers(func() {
		resp, err = c.Diagnose("wide", nil, &DiagnoseOptions{Partition: 1 << 20, SolverParallel: 1 << 20})
	})
	if err != nil {
		t.Fatal(err)
	}
	checkRepair(t, "wide", resp, wantLog, wantChanged, wantDist)
	if w := int64(runtime.GOMAXPROCS(0)); peak > w*w {
		t.Errorf("the request ran %d scheduler goroutines at once, want at most %d", peak, w*w)
	}
}

// TestDaemonRejectsOverflowingTimeLimit: a time_limit_ms whose product
// with time.Millisecond wraps int64 would become a 192 µs per-solve
// limit (9223372036854776) or, at 1<<62, zero and so the 60 s default.
// The daemon refuses both with an error naming the member and goes on
// serving the connection.
func TestDaemonRejectsOverflowingTimeLimit(t *testing.T) {
	_, addr := startDaemon(t, Config{})
	c := dialDaemon(t, addr)
	sc := taxScenario(0)
	seedTenant(t, c, "acme", sc)
	wantLog, wantChanged, wantDist := cliRepair(t, sc)
	for _, ms := range []int64{9223372036854776, 1 << 62} {
		_, err := c.Diagnose("acme", nil, &DiagnoseOptions{TimeLimitMS: ms})
		if err == nil || !strings.Contains(err.Error(), "time_limit_ms") {
			t.Errorf("time_limit_ms %d: err = %v, want one naming time_limit_ms", ms, err)
		}
	}
	resp, err := c.Diagnose("acme", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkRepair(t, "after the refused limits", resp, wantLog, wantChanged, wantDist)
}

// peakSchedWorkers runs f and returns the most scheduler goroutines
// (pool workers and speculative LP workers: the qfix_sched_workers
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

// Backpressure end to end: with one slot held and queueing disabled,
// a diagnose request answers with a clean busy error immediately — it
// must not hang.
func TestDaemonBusyResponse(t *testing.T) {
	svc, addr := startDaemon(t, Config{MaxInflight: -1, TenantQueue: -1})
	c := dialDaemon(t, addr)
	sc := taxScenario(0)
	seedTenant(t, c, "acme", sc)

	if err := svc.adm.acquire(context.Background(), "other"); err != nil {
		t.Fatal(err) // hold the only slot
	}
	done := make(chan error, 1)
	go func() {
		resp, err := c.Diagnose("acme", nil, nil)
		if err == nil {
			done <- errors.New("diagnose succeeded with the only slot held")
			return
		}
		if resp == nil || !resp.Busy {
			done <- fmt.Errorf("busy flag not set on backpressure response (err=%v)", err)
			return
		}
		if !errors.Is(err, ErrBusy) {
			done <- fmt.Errorf("client error = %v, want ErrBusy", err)
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("over-limit diagnose hung instead of answering busy")
	}

	svc.adm.release()
	resp, err := c.Diagnose("acme", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantLog, wantChanged, wantDist := cliRepair(t, sc)
	checkRepair(t, "after release", resp, wantLog, wantChanged, wantDist)
}

// A draining service refuses new work with ErrDraining and still
// answers it over the wire as a plain error.
func TestDaemonDrainRefusesNewWork(t *testing.T) {
	svc, addr := startDaemon(t, Config{})
	c := dialDaemon(t, addr)
	sc := taxScenario(0)
	seedTenant(t, c, "acme", sc)

	svc.Drain()
	if _, err := svc.Diagnose(context.Background(), "acme", nil, nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("Diagnose while draining = %v, want ErrDraining", err)
	}
	if err := c.Append("acme", "UPDATE Taxes SET pay = pay + 1"); err == nil {
		t.Fatal("append while draining succeeded")
	}
}

// Tenant state survives a daemon restart: the histstore directory is
// the durable record, and a fresh service over the same Dir serves the
// same repair.
func TestDaemonRestartServesSameRepair(t *testing.T) {
	dir := t.TempDir()
	sc := taxScenario(0)
	wantLog, wantChanged, wantDist := cliRepair(t, sc)

	_, addr := startDaemon(t, Config{Dir: dir})
	c := dialDaemon(t, addr)
	seedTenant(t, c, "acme", sc)
	resp, err := c.Diagnose("acme", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkRepair(t, "first daemon", resp, wantLog, wantChanged, wantDist)

	// Second daemon over the same directory: complaints are not durable
	// (only history is), so they are re-sent inline.
	_, addr2 := startDaemon(t, Config{Dir: dir})
	c2 := dialDaemon(t, addr2)
	resp, err = c2.Diagnose("acme", sc.complaints, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkRepair(t, "restarted daemon", resp, wantLog, wantChanged, wantDist)
}

// Protocol hygiene: bad versions, unknown ops, and invalid tenants
// answer errors without killing the connection.
func TestDaemonProtocolErrors(t *testing.T) {
	_, addr := startDaemon(t, Config{MaxInflight: 1})
	c := dialDaemon(t, addr)
	do := func(req *Request) error {
		resp, err := c.Do(context.Background(), req)
		if err == nil && resp.Err != "" {
			err = errors.New(resp.Err)
		}
		return err
	}

	if err := do(&Request{Op: "explode"}); err == nil {
		t.Error("unknown op accepted")
	}
	if err := do(&Request{Op: "append", Tenant: "../escape", SQL: []string{"x"}}); err == nil {
		t.Error("path-traversal tenant name accepted")
	}
	if err := do(&Request{Op: OpDiagnose, Tenant: "nosuch"}); err == nil {
		t.Error("diagnose of a missing tenant succeeded")
	}
	// A daemon does not solve: a solve would run beside the diagnoses
	// its admission bounds (here one at a time), unadmitted.
	sch := relation.MustSchema("t", []string{"a"}, "")
	job, err := dist.EncodeJob(1, core.Subproblem{D0: relation.NewTable(sch),
		Log: []query.Query{sqlparse.MustParse(sch, "UPDATE t SET a = 1")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := do(job); err == nil || !strings.Contains(err.Error(), `unknown op "solve"`) {
		t.Errorf("solve on a daemon: %v, want an unknown-op error", err)
	}
	// The connection still works after every error.
	if err := c.Ping(); err != nil {
		t.Fatalf("connection dead after protocol errors: %v", err)
	}
}
