package dist_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"runtime"
	"strings"
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
		return editLog(job, replaceOnce(" WHERE ", " WHERE "+unknownAttr+" + "))
	},
	"set expression attribute": func(job map[string]any) bool {
		return editLog(job, func(stmt string) string {
			if !strings.HasPrefix(stmt, "UPDATE ") {
				return stmt
			}
			return strings.Replace(stmt, " = ", " = "+unknownAttr+" + ", 1)
		})
	},
}

// unknownAttr names an attribute no test table has.
const unknownAttr = "zz"

// editLog applies edit to the statements of a job frame's log, the SQL
// text of each, and keeps the first one it changes; it reports whether
// there was one.
func editLog(job map[string]any, edit func(stmt string) string) bool {
	log := job["log"].([]any)
	for i, q := range log {
		if stmt := edit(q.(string)); stmt != q {
			log[i] = stmt
			return true
		}
	}
	return false
}

// replaceOnce is the statement edit that replaces the first old by new.
func replaceOnce(old, new string) func(string) string {
	return func(stmt string) string { return strings.Replace(stmt, old, new, 1) }
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

// DecodeJob refuses a statement the parser does not read back against
// the table: one naming an attribute the table does not have, wherever
// it names it, one that is not SQL of the grammar, and one over another
// table.
func TestDecodeJobRejectsAttributesOutsideTable(t *testing.T) {
	job, err := dist.EncodeJob(1, fixtureSubproblem(t))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		edit       func(map[string]any) bool
	}{
		{"where attribute", `unknown attribute "zz"`, malformed["where attribute"]},
		{"set expression attribute", `unknown attribute "zz"`, malformed["set expression attribute"]},
		{"set target", `unknown attribute "zz"`, func(job map[string]any) bool {
			return editLog(job, replaceOnce(" SET ", " SET "+unknownAttr+" = 1, "))
		}},
		{"syntax error", `found "SET"`, func(job map[string]any) bool {
			return editLog(job, replaceOnce(" SET ", " SET SET "))
		}},
		{"table name", `unknown table "U"`, func(job map[string]any) bool {
			return editLog(job, replaceOnce("UPDATE T ", "UPDATE U "))
		}},
	} {
		bad, err := rewriteJob(raw, tc.edit)
		if err != nil {
			t.Fatal(tc.name, err)
		}
		var onWire dist.Job
		if err := json.Unmarshal(bad, &onWire); err != nil {
			t.Fatal(tc.name, err)
		}
		if _, err := dist.DecodeJob(&onWire); err == nil {
			t.Errorf("%s: DecodeJob accepted the job", tc.name)
		} else if !strings.Contains(err.Error(), "query 0: ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: DecodeJob error %q, want one on query 0 saying %q", tc.name, err, tc.want)
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
		coord := dist.NewCoordinator(dist.Config{Logf: t.Logf}, rawTransport{
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
	coord := dist.NewCoordinator(dist.Config{Logf: t.Logf}, padded)
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

	coord := dist.Connect(dist.Config{Logf: t.Logf}, startWorker(t), bad)
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
