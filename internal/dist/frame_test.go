package dist_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dist"
	"repro/internal/frameconn"
)

// malformed rewrites a decoded job frame into each shape of input a peer
// can send that the engine cannot index: an existence complaint with
// fewer values than the table has attributes, and a WHERE predicate or
// a SET expression over an attribute the table does not have. Each
// reports whether the frame had something to rewrite.
var malformed = map[string]func(job map[string]any) bool{
	"short complaint": func(job map[string]any) bool {
		for _, c := range job["complaints"].([]any) {
			if c := c.(map[string]any); c["Exists"] == true {
				c["Values"] = c["Values"].([]any)[:1]
				return true
			}
		}
		return false
	},
	"where attribute": func(job map[string]any) bool {
		for _, q := range job["log"].([]any) {
			if w, ok := q.(map[string]any)["where"].(map[string]any); ok && widenPred(w, width(job)) {
				return true
			}
		}
		return false
	},
	"set expression attribute": func(job map[string]any) bool {
		for _, q := range job["log"].([]any) {
			if set, ok := q.(map[string]any)["set"].([]any); ok {
				widenExpr(set[0].(map[string]any)["expr"].(map[string]any), width(job))
				return true
			}
		}
		return false
	},
}

func width(job map[string]any) int {
	return len(job["d0"].(map[string]any)["attrs"].([]any))
}

// widenExpr adds a term over attribute a to a wire expression.
func widenExpr(expr map[string]any, a int) {
	terms, _ := expr["terms"].([]any)
	expr["terms"] = append(terms, map[string]any{"Attr": a, "Coef": 1})
}

// widenPred widens the first predicate of a wire condition tree.
func widenPred(c map[string]any, a int) bool {
	if c["op"] == "pred" {
		widenExpr(c["lhs"].(map[string]any), a)
		return true
	}
	kids, _ := c["kids"].([]any)
	for _, k := range kids {
		if widenPred(k.(map[string]any), a) {
			return true
		}
	}
	return false
}

// rewriteJob applies f to a job frame.
func rewriteJob(raw []byte, f func(map[string]any) bool) ([]byte, error) {
	var job map[string]any
	if err := json.Unmarshal(raw, &job); err != nil {
		return nil, err
	}
	if !f(job) {
		return nil, errNothingToRewrite
	}
	return json.Marshal(job)
}

var errNothingToRewrite = &testError{}

// DecodeJob refuses a statement over an attribute the table does not
// have, wherever it names it; the SET target was already refused by
// replay, the WHERE and the SET expression were indexed past the tuple.
func TestDecodeJobRejectsAttributesOutsideTable(t *testing.T) {
	job, err := dist.EncodeJob(1, fixtureSubproblem(t))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func(map[string]any) bool{
		"where attribute":          malformed["where attribute"],
		"set expression attribute": malformed["set expression attribute"],
		"negative where attribute": func(job map[string]any) bool {
			return widenPred(job["log"].([]any)[0].(map[string]any)["where"].(map[string]any), -1)
		},
		"set target": func(job map[string]any) bool {
			job["log"].([]any)[0].(map[string]any)["set"].([]any)[0].(map[string]any)["attr"] = width(job)
			return true
		},
	} {
		bad, err := rewriteJob(raw, f)
		if err != nil {
			t.Fatal(name, err)
		}
		var onWire dist.Job
		if err := json.Unmarshal(bad, &onWire); err != nil {
			t.Fatal(name, err)
		}
		if _, err := dist.DecodeJob(&onWire); err == nil {
			t.Errorf("%s: DecodeJob accepted the job", name)
		}
	}
}

// A worker sent a malformed job answers it with an error result and
// stays up; the coordinator falls back to its own engine, so the repair
// is the local one, byte for byte, and the next well-formed job is
// served remotely again.
func TestWorkerAnswersMalformedJobs(t *testing.T) {
	d0, log, complaints := benchInstance(t, 2)
	want := localReference(t, d0, log, complaints)
	sch := d0.Schema()
	addr := startWorker(t)

	for name, f := range malformed {
		var errs atomic.Int64
		coord := dist.NewCoordinator(dist.Config{Retries: -1, Logf: t.Logf}, rawTransport{
			addr: addr,
			job:  func(raw []byte) ([]byte, error) { return rewriteJob(raw, f) },
			result: func(line []byte) ([]byte, error) {
				var res dist.Result
				if json.Unmarshal(line, &res) == nil && res.Err != "" {
					errs.Add(1)
				}
				return line, nil
			},
		})
		got, err := coord.Diagnose(d0, log, complaints, partitionOpts())
		coord.Close()
		if err != nil {
			t.Fatal(name, err)
		}
		if w, g := repairFingerprint(sch, want), repairFingerprint(sch, got); w != g {
			t.Errorf("%s: repair differs from local:\n got:\n%s\nwant:\n%s", name, g, w)
		}
		if got.Stats.RemoteJobs != 0 || int(errs.Load()) != got.Stats.Partitions {
			t.Errorf("%s: %d remote jobs, %d error results, want 0 and %d",
				name, got.Stats.RemoteJobs, errs.Load(), got.Stats.Partitions)
		}
	}

	coord := dist.Connect(dist.Config{Logf: t.Logf}, addr)
	defer coord.Close()
	got, err := coord.Diagnose(d0, log, complaints, partitionOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.RemoteJobs != got.Stats.Partitions {
		t.Errorf("after the malformed jobs the worker served %d of %d", got.Stats.RemoteJobs, got.Stats.Partitions)
	}
}

// serialTransport runs one job at a time, so a test holds one
// oversized frame in memory at once.
type serialTransport struct {
	mu sync.Mutex
	dist.Transport
}

func (s *serialTransport) Do(ctx context.Context, job *dist.Job) (*dist.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Transport.Do(ctx, job)
}

// A job frame past frameconn.MaxFrame is dropped with its connection,
// and a worker fed an endless line gives up on it without buffering
// more than the cap. The coordinator whose jobs were dropped solves
// them locally, byte for byte, and the worker serves the next
// well-formed job as if nothing had happened.
func TestServerBoundsJobFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 64 MiB lines over loopback")
	}
	d0, log, complaints := benchInstance(t, 2)
	want := localReference(t, d0, log, complaints)
	sch := d0.Schema()
	addr := startWorker(t)

	padded := &serialTransport{Transport: rawTransport{addr: addr, job: func(raw []byte) ([]byte, error) {
		// Still one JSON object, just too long for a frame.
		pad := bytes.Repeat([]byte{' '}, frameconn.MaxFrame)
		return append(append(raw[:len(raw)-1:len(raw)-1], pad...), '}'), nil
	}}}
	coord := dist.NewCoordinator(dist.Config{Retries: -1, Logf: t.Logf}, padded)
	got, err := coord.Diagnose(d0, log, complaints, partitionOpts())
	coord.Close()
	if err != nil {
		t.Fatal(err)
	}
	if w, g := repairFingerprint(sch, want), repairFingerprint(sch, got); w != g {
		t.Errorf("repair with dropped frames differs from local:\n got:\n%s\nwant:\n%s", g, w)
	}
	if got.Stats.RemoteJobs != 0 {
		t.Errorf("RemoteJobs = %d, want 0: every frame was over the cap", got.Stats.RemoteJobs)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	chunk := bytes.Repeat([]byte("a"), 1<<20)
	for sent := 0; sent < frameconn.MaxFrame+1<<20; sent += len(chunk) {
		if _, err := conn.Write(chunk); err != nil {
			break // the worker hung up, as it should
		}
	}
	if _, err := bufio.NewReader(conn).ReadByte(); err == nil {
		t.Error("the worker answered an endless line")
	}
	conn.Close()
	runtime.ReadMemStats(&after)
	if grown := int64(after.Sys) - int64(before.Sys); grown > 4*frameconn.MaxFrame {
		t.Errorf("the process grew by %d MiB on a line capped at %d MiB", grown>>20, frameconn.MaxFrame>>20)
	}

	healthy := dist.Connect(dist.Config{Logf: t.Logf}, addr)
	defer healthy.Close()
	if got, err = healthy.Diagnose(d0, log, complaints, partitionOpts()); err != nil {
		t.Fatal(err)
	}
	if got.Stats.RemoteJobs != got.Stats.Partitions {
		t.Errorf("after the long lines the worker served %d of %d", got.Stats.RemoteJobs, got.Stats.Partitions)
	}
}

// startEndlessWorker answers the first job it reads with a result line
// that never ends; every later connection takes its job and hangs up.
func startEndlessWorker(t *testing.T) (addr string, endless *atomic.Int64) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	endless = new(atomic.Int64)
	var wg sync.WaitGroup
	t.Cleanup(func() { l.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for first := true; ; first = false {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			if _, err := bufio.NewReader(conn).ReadBytes('\n'); err == nil && first {
				endless.Add(1)
				chunk := bytes.Repeat([]byte("a"), 1<<20)
				for sent := 0; sent < frameconn.MaxFrame+1<<20; sent += len(chunk) {
					if _, err := conn.Write(chunk); err != nil {
						break // the coordinator hung up, as it should
					}
				}
			}
			conn.Close()
		}
	}()
	return l.Addr().String(), endless
}

// A mux link whose worker streams a result past frameconn.MaxFrame is
// torn down: its in-flight jobs fail over to the healthy worker and the
// repair is unchanged.
func TestMuxBoundsResultFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a 64 MiB line over loopback")
	}
	d0, log, complaints := benchInstance(t, 4)
	want := localReference(t, d0, log, complaints)
	bad, endless := startEndlessWorker(t)

	coord := dist.Connect(dist.Config{Mux: true, Retries: 1, Logf: t.Logf}, startWorker(t), bad)
	defer coord.Close()
	got, err := coord.Diagnose(d0, log, complaints, partitionOpts())
	if err != nil {
		t.Fatal(err)
	}
	sch := d0.Schema()
	if w, g := repairFingerprint(sch, want), repairFingerprint(sch, got); w != g {
		t.Errorf("repair with an endless result differs from local:\n got:\n%s\nwant:\n%s", g, w)
	}
	if endless.Load() != 1 {
		t.Fatalf("the endless worker streamed %d results, want 1", endless.Load())
	}
	if got.Stats.RemoteJobs != got.Stats.Partitions {
		t.Errorf("RemoteJobs = %d, want %d: the failed jobs retry on the healthy worker",
			got.Stats.RemoteJobs, got.Stats.Partitions)
	}
}
