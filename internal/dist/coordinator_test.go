package dist

import (
	"context"
	"errors"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/testcheck"
)

// tinySubproblem is a one-row, one-query instance the local engine
// solves in microseconds: the UPDATE's threshold was typed too high, so
// repairing it to ≤100 resolves the complaint.
func tinySubproblem(t *testing.T) core.Subproblem {
	t.Helper()
	sch := relation.MustSchema("T", []string{"a"}, "")
	d0 := relation.NewTable(sch)
	d0.MustInsert(100)
	log := []query.Query{query.NewUpdate(
		[]query.SetClause{{Attr: 0, Expr: query.ConstExpr(5)}},
		query.AttrPred(0, query.GE, 200))}
	return core.Subproblem{
		D0:         d0,
		Log:        log,
		Complaints: []core.Complaint{{TupleID: 1, Exists: true, Values: []float64{5}}},
		Options:    core.Options{Algorithm: core.Basic, TimeLimit: 30 * time.Second},
	}
}

// TestDispatchCursorWraparound is the round-robin wraparound
// regression: when the shared uint64 cursor wraps, the raw int
// conversion went negative and the negative modulo index panicked.
// The cursor is now reduced modulo the fleet size while unsigned.
func TestDispatchCursorWraparound(t *testing.T) {
	coord := NewCoordinator(Config{Logf: t.Logf}, InProc{}, InProc{}, InProc{})
	defer coord.Close()
	coord.next.Store(math.MaxUint64) // next Add(1) wraps the counter to 0

	for i := 0; i < 3; i++ { // walk the cursor across the wrap boundary
		rep, err := coord.Solver().SolvePartition(tinySubproblem(t))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Resolved {
			t.Fatalf("dispatch %d at wraparound lost the instance: %+v", i, rep.Stats)
		}
	}
	if coord.RemoteJobs() != 3 {
		t.Errorf("RemoteJobs = %d, want 3 (every dispatch must reach a transport)",
			coord.RemoteJobs())
	}
}

// TestUnprintableNamesSolveLocally: the log crosses the wire as SQL
// text, which names the table and its attributes bare. A schema with a
// name that would not read back as itself is never dispatched: a
// keyword, a name with a blank or a dash, or one that lexes as a number,
// which would turn a SET from attribute 2024 into the constant 2024 on
// the worker. EncodeJob refuses it and the coordinator declines the
// job, which the engine's partition scan then solves on its own plan.
func TestUnprintableNamesSolveLocally(t *testing.T) {
	for _, c := range []struct{ table, attr string }{
		{"T", "2024"}, {"T", "1e3"}, {"T", "in"}, {"T", "net pay"}, {"T", "a-b"},
		{"set", "a"}, {"", "a"},
	} {
		sub := tinySubproblem(t)
		sub.D0 = relation.NewTable(relation.MustSchema(c.table, []string{c.attr}, ""))
		sub.D0.MustInsert(100)
		if _, err := EncodeJob(1, sub); err == nil || !strings.Contains(err.Error(), "not a plain SQL identifier") {
			t.Errorf("table %q attribute %q: EncodeJob err = %v, want a refusal", c.table, c.attr, err)
		}
		coord := NewCoordinator(Config{Logf: t.Logf}, InProc{})
		rep, err := coord.Solver().SolvePartition(sub)
		if !errors.Is(err, core.ErrDeclined) || rep != nil {
			t.Fatalf("table %q attribute %q: repair=%v err=%v, want the job declined", c.table, c.attr, rep != nil, err)
		}
		if coord.RemoteJobs() != 0 || coord.LocalFallbacks() != 1 {
			t.Errorf("table %q attribute %q: RemoteJobs=%d LocalFallbacks=%d, want 0 and 1",
				c.table, c.attr, coord.RemoteJobs(), coord.LocalFallbacks())
		}
	}
}

// captureTransport records the jobs offered to it and answers like a
// healthy remote worker (solving in process).
type captureTransport struct {
	mu   sync.Mutex
	jobs []Job
}

func (c *captureTransport) Do(ctx context.Context, job *Job) (*Result, error) {
	c.mu.Lock()
	c.jobs = append(c.jobs, *job)
	c.mu.Unlock()
	return InProc{}.Do(ctx, job)
}
func (c *captureTransport) Addr() string { return "capture" }
func (c *captureTransport) Close() error { return nil }

// TestDispatchStampsAttemptDeadline pins the wire-v3 advisory attempt
// window: every shipped attempt carries its relative TTL plus a clamped
// solve budget, and a worker that only dequeues a job past the window
// (the server anchors the TTL at frame arrival and threads it through
// the solve context) refuses it instead of solving dead work, both in
// the solve call and over a loopback connection. Closing the
// coordinator, the transport and the server leaves no goroutine behind.
func TestDispatchStampsAttemptDeadline(t *testing.T) {
	base := runtime.NumGoroutine()
	ct := &captureTransport{}
	coord := NewCoordinator(Config{JobTimeout: time.Minute, Logf: t.Logf}, ct)
	rep, err := coord.Solver().SolvePartition(tinySubproblem(t))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resolved {
		t.Fatalf("dispatch lost the instance: %+v", rep.Stats)
	}
	if len(ct.jobs) != 1 {
		t.Fatalf("captured %d jobs, want 1", len(ct.jobs))
	}
	job := ct.jobs[0]
	if job.AttemptTTLNS <= 0 || job.AttemptTTLNS > int64(time.Minute) {
		t.Errorf("attempt TTL = %v, want within (0, JobTimeout]",
			time.Duration(job.AttemptTTLNS))
	}
	if ms := job.TotalTimeLimitMS; ms <= 0 || ms > time.Minute.Milliseconds() {
		t.Errorf("attempt solve budget = %v, want clamped into (0, JobTimeout]",
			time.Duration(ms)*time.Millisecond)
	}

	// Worker side: a job whose attempt window closed while it queued
	// (an already-expired arrival-anchored context) is refused.
	expired, cancel := context.WithDeadline(context.Background(),
		time.Now().Add(-time.Second))
	defer cancel()
	res := solveJob(expired, &job, decodeBody(&job))
	if res.Err == "" || res.Resolved {
		t.Errorf("worker solved a job whose attempt window had closed: %+v", res)
	}

	// Over the wire: a window of 1 ns has closed by the time the server
	// anchors it at frame arrival, so the worker answers the deadline
	// error at once.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Logf: t.Logf}
	served := make(chan struct{})
	go func() {
		srv.Serve(l)
		close(served)
	}()
	tr := DialMux(l.Addr().String())
	wire := job
	wire.AttemptTTLNS = 1
	ctx, cancelDo := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelDo()
	if res, err := tr.Do(ctx, &wire); err != nil {
		t.Error(err)
	} else if !strings.Contains(res.Err, context.DeadlineExceeded.Error()) {
		t.Errorf("expired attempt answered err=%q resolved=%v, want the deadline error", res.Err, res.Resolved)
	}
	tr.Close()
	srv.Close()
	<-served
	coord.Close()
	testcheck.Goroutines(t, base)
}

// TestClampBudget pins how the attempt window threads into a worker
// solve: no deadline leaves the budget alone, a tighter ctx deadline
// (on the server path, the job's TTL anchored at frame arrival) clamps
// it, a looser one doesn't, and a dead attempt is refused.
func TestClampBudget(t *testing.T) {
	bg := context.Background()

	o := core.Options{TotalTimeLimit: time.Hour}
	if !clampBudget(bg, &o) || o.TotalTimeLimit != time.Hour {
		t.Errorf("background ctx: ok/budget = %v, want untouched hour", o.TotalTimeLimit)
	}

	canceled, cancel := context.WithCancel(bg)
	cancel()
	if clampBudget(canceled, &o) {
		t.Error("canceled ctx accepted")
	}

	expired, cancelExp := context.WithDeadline(bg, time.Now().Add(-time.Second))
	defer cancelExp()
	if clampBudget(expired, &o) {
		t.Error("expired ctx deadline accepted")
	}

	tight, cancelTight := context.WithTimeout(bg, 100*time.Millisecond)
	defer cancelTight()
	o2 := core.Options{TotalTimeLimit: time.Hour}
	if !clampBudget(tight, &o2) {
		t.Fatal("live deadline rejected")
	}
	if o2.TotalTimeLimit > 100*time.Millisecond || o2.TotalTimeLimit <= 0 {
		t.Errorf("budget = %v, want clamped into (0, 100ms]", o2.TotalTimeLimit)
	}
	o3 := core.Options{} // no budget of its own: the deadline becomes one
	if !clampBudget(tight, &o3) || o3.TotalTimeLimit <= 0 || o3.TotalTimeLimit > 100*time.Millisecond {
		t.Errorf("unbudgeted job: budget = %v, want the ctx share", o3.TotalTimeLimit)
	}

	loose, cancelLoose := context.WithTimeout(bg, time.Hour)
	defer cancelLoose()
	o4 := core.Options{TotalTimeLimit: time.Millisecond}
	if !clampBudget(loose, &o4) || o4.TotalTimeLimit != time.Millisecond {
		t.Errorf("tight own budget loosened to %v", o4.TotalTimeLimit)
	}
}
