package qfixd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// rawClient speaks the protocol a line at a time, so a test sees the
// response frames themselves.
type rawClient struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	id   uint64
}

func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawClient{t: t, conn: conn, br: bufio.NewReader(conn)}
}

// diagnose sends one diagnose request and returns the response frame
// from its "id" value on (what a hit and a miss must agree on), decoded
// as well.
func (r *rawClient) diagnose(tenant string, inline []core.Complaint, opt *DiagnoseOptions) ([]byte, *Response) {
	r.t.Helper()
	r.id++
	req, err := json.Marshal(&Request{Version: WireVersion, ID: r.id, Op: OpDiagnose,
		Tenant: tenant, Complaints: inline, Options: opt})
	if err != nil {
		r.t.Fatal(err)
	}
	if _, err := r.conn.Write(append(req, '\n')); err != nil {
		r.t.Fatal(err)
	}
	line, err := r.br.ReadBytes('\n')
	if err != nil {
		r.t.Fatal(err)
	}
	tail, ok := bytes.CutPrefix(line, fmt.Appendf(nil, `{"v":%d,"id":%d`, WireVersion, r.id))
	if !ok {
		r.t.Fatalf("response does not open with this request's id %d: %s", r.id, line)
	}
	resp := new(Response)
	if err := json.Unmarshal(line, resp); err != nil {
		r.t.Fatal(err)
	}
	return tail, resp
}

// memoCounts reads the two memo counters; tests compare differences.
func memoCounts() (hits, misses int64) {
	return mMemoHits.Value(), mMemoMisses.Value()
}

// expectMemo runs one diagnose and requires it to be a hit or a miss,
// by the counters.
func (r *rawClient) expectMemo(what string, wantHit bool, tenant string, inline []core.Complaint,
	opt *DiagnoseOptions) ([]byte, *Response) {
	r.t.Helper()
	h0, m0 := memoCounts()
	tail, resp := r.diagnose(tenant, inline, opt)
	h1, m1 := memoCounts()
	if hit := h1-h0 == 1 && m1 == m0; hit != wantHit || (h1-h0)+(m1-m0) != 1 {
		r.t.Fatalf("%s: memo hits +%d, misses +%d; want hit=%v", what, h1-h0, m1-m0, wantHit)
	}
	return tail, resp
}

// One tenant walked through everything that must and must not change
// the question: only an exact repeat is answered from the memo, and
// then with the very bytes of the first answer.
func TestAnswerMemo(t *testing.T) {
	svc, addr := startDaemon(t, Config{MaxInflight: -1, TenantQueue: -1})
	c := dialDaemon(t, addr)
	raw := dialRaw(t, addr)
	sc := taxScenario(0)
	seedTenant(t, c, "acme", sc)
	wantLog, wantChanged, wantDist := cliRepair(t, sc)

	first, resp := raw.expectMemo("first diagnosis", false, "acme", nil, nil)
	checkRepair(t, "first diagnosis", resp, wantLog, wantChanged, wantDist)

	// A repeat takes no admission slot: hold the only one and it still
	// answers, while a different question is turned away busy.
	if err := svc.adm.acquire(context.Background(), "other"); err != nil {
		t.Fatal(err)
	}
	again, _ := raw.expectMemo("repeat", true, "acme", nil, nil)
	if !bytes.Equal(again, first) {
		t.Fatalf("a hit differs from the miss it repeats:\n hit:  %s\n miss: %s", again, first)
	}
	if _, resp := raw.expectMemo("other options, slot held", false, "acme", nil, &DiagnoseOptions{K: 2}); !resp.Busy {
		t.Fatalf("a miss ran without a slot: %+v", resp)
	}
	svc.adm.release()

	// An append changes the history: the engine runs, over the grown log.
	grown := sc
	grown.sql = append(append([]string(nil), sc.sql...), "UPDATE Taxes SET pay = income - owed WHERE income >= 1")
	if err := c.Append("acme", grown.sql[len(sc.sql):]...); err != nil {
		t.Fatal(err)
	}
	wantLog, wantChanged, wantDist = cliRepair(t, grown)
	afterAppend, resp := raw.expectMemo("after append", false, "acme", nil, nil)
	checkRepair(t, "after append", resp, wantLog, wantChanged, wantDist)
	again, _ = raw.expectMemo("repeat after append", true, "acme", nil, nil)
	if !bytes.Equal(again, afterAppend) {
		t.Fatal("a hit after the append differs from its miss")
	}

	// One more staged complaint is another question, even one that only
	// confirms a tuple the log already gets right.
	confirmed := []core.Complaint{{TupleID: 2, Exists: true, Values: []float64{90000, 27000, 63000}}}
	if err := c.Complain("acme", confirmed); err != nil {
		t.Fatal(err)
	}
	_, resp = raw.expectMemo("after complain", false, "acme", nil, nil)
	checkRepair(t, "after complain", resp, wantLog, wantChanged, wantDist)

	// Options are part of the question, by value: nil is the zero value.
	raw.expectMemo("other options", false, "acme", nil, &DiagnoseOptions{K: 2})
	raw.expectMemo("other options again", true, "acme", nil, &DiagnoseOptions{K: 2})
	raw.expectMemo("default options", false, "acme", nil, nil)
	raw.expectMemo("zero options", true, "acme", nil, &DiagnoseOptions{})

	// Checkpoint drops the memo with the complaints it answered.
	if err := c.Checkpoint("acme"); err != nil {
		t.Fatal(err)
	}
	svc.mu.Lock()
	tn := svc.tenants["acme"]
	svc.mu.Unlock()
	tn.mu.Lock()
	left := tn.memo
	tn.mu.Unlock()
	if left != nil {
		t.Fatal("the memo survived Checkpoint")
	}

	// Draining refuses even what the memo could answer.
	seedTenant(t, c, "late", sc)
	raw.expectMemo("late first", false, "late", nil, nil)
	svc.Drain()
	h0, m0 := memoCounts()
	if _, resp := raw.diagnose("late", nil, nil); !strings.Contains(resp.Err, "draining") {
		t.Fatalf("diagnose while draining: %+v", resp)
	}
	if h1, m1 := memoCounts(); h1 != h0 || m1 != m0 {
		t.Fatal("a refused request touched the memo")
	}
}

// Staged and inline complaints are one list, staged first: the memo
// matches when that list is the same, wherever its members came from.
func TestAnswerMemoStagedAndInline(t *testing.T) {
	_, addr := startDaemon(t, Config{})
	c := dialDaemon(t, addr)
	raw := dialRaw(t, addr)
	sc := taxScenario(0)
	if err := c.Create("acme", "Taxes", "", taxAttrs, sc.rows); err != nil {
		t.Fatal(err)
	}
	if err := c.Append("acme", sc.sql...); err != nil {
		t.Fatal(err)
	}
	raw.expectMemo("inline", false, "acme", sc.complaints, nil)
	raw.expectMemo("inline again", true, "acme", sc.complaints, nil)

	// One value off by one bit in the last place is another complaint.
	near := cloneComplaints(sc.complaints)
	near[1].Values[2] = math.Nextafter(near[1].Values[2], math.Inf(1))
	raw.expectMemo("one ulp off", false, "acme", near, nil)
	exact, _ := raw.expectMemo("back to exact", false, "acme", sc.complaints, nil)

	if err := c.Complain("acme", sc.complaints[:1]); err != nil {
		t.Fatal(err)
	}
	split, _ := raw.expectMemo("first staged, second inline", true, "acme", sc.complaints[1:], nil)
	if !bytes.Equal(split, exact) {
		t.Fatal("the same list split differently answered differently")
	}
	raw.expectMemo("staged plus both inline", false, "acme", sc.complaints, nil)
}

// Length alone does not name a history: after a checkpoint the log can
// grow back to the memoised length and is still another log.
func TestAnswerMemoGeneration(t *testing.T) {
	svc, addr := startDaemon(t, Config{})
	c := dialDaemon(t, addr)
	raw := dialRaw(t, addr)
	sc := taxScenario(0)
	seedTenant(t, c, "acme", sc)
	raw.expectMemo("first", false, "acme", nil, nil)
	raw.expectMemo("repeat", true, "acme", nil, nil)

	// Checkpoint the store behind the service's back, so the memo and the
	// staged complaints stay, then append as many statements as before.
	svc.mu.Lock()
	store := svc.tenants["acme"].store
	svc.mu.Unlock()
	if err := store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for range sc.sql {
		if _, err := store.AppendSQL("UPDATE Taxes SET pay = income - owed"); err != nil {
			t.Fatal(err)
		}
	}
	_, resp := raw.expectMemo("same length, next generation", false, "acme", nil, nil)
	if resp.Err == "" && reflect.DeepEqual(resp.Log, sc.sql) {
		t.Fatal("answered the old generation's log")
	}
}

// Eviction closes the store and the memo goes with the tenant; and a
// wire diagnosis looks its tenant up once — it used to look it up again
// to render the answer, which under eviction pressure meant reopening a
// store the request had only just released.
func TestAnswerMemoEvictionAndSingleLookup(t *testing.T) {
	var running atomic.Pointer[Service]
	var mu sync.Mutex
	var inRequest []string
	svc, addr := startDaemon(t, Config{MaxOpenStores: 1, StoreIdle: time.Nanosecond, Logf: func(format string, args ...any) {
		// Lookups of another tenant while a diagnosis holds its pin.
		if strings.Contains(format, "diagnosed") && args[0] == "a" {
			_, _, err := running.Load().Stats("b")
			mu.Lock()
			inRequest = append(inRequest, fmt.Sprint(err))
			mu.Unlock()
		}
	}})
	running.Store(svc)
	c := dialDaemon(t, addr)
	raw := dialRaw(t, addr)
	sc := taxScenario(0)
	for _, name := range []string{"a", "b"} {
		if err := c.Create(name, "Taxes", "", taxAttrs, sc.rows); err != nil {
			t.Fatal(err)
		}
		if err := c.Append(name, sc.sql...); err != nil {
			t.Fatal(err)
		}
	}
	opens := obs.Default().Counter("qfix_histstore_opens_total", "")
	for round := 0; round < 3; round++ {
		before := opens.Value()
		// Nothing is staged, so every store is idle the moment it is
		// released and the next lookup sweeps it: each request reopens
		// its tenant once, and finds no memo.
		_, resp := raw.expectMemo("evicted in between", false, "a", sc.complaints, nil)
		if !resp.Resolved {
			t.Fatalf("round %d: %+v", round, resp)
		}
		// One open for a, one for the Stats("b") made while a was pinned.
		if got := opens.Value() - before; got != 2 {
			t.Fatalf("round %d: %d stores opened for one diagnosis of a and one lookup of b, want 2", round, got)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"<nil>", "<nil>", "<nil>"}; !reflect.DeepEqual(inRequest, want) {
		t.Fatalf("lookups of b during a's diagnoses: %v, want %v", inRequest, want)
	}
}

// Appends racing diagnoses: an answer is always for a log the request
// could have seen — at least as long as what was appended before it was
// sent, no longer than what was appended when it came back — and a
// prefix of the one sequence of appends.
func TestAnswerMemoNeverAheadOrBehind(t *testing.T) {
	_, addr := startDaemon(t, Config{})
	c := dialDaemon(t, addr)
	sc := taxScenario(0)
	seedTenant(t, c, "acme", sc)

	const appends = 24
	stmt := func(k int) string {
		return fmt.Sprintf("UPDATE Taxes SET pay = income - owed WHERE income >= %d", k+1)
	}
	var started, landed atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, 3)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < appends; k++ {
			started.Add(1)
			if err := c.Append("acme", stmt(k)); err != nil {
				errc <- err
				return
			}
			landed.Add(1)
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		cl := dialDaemon(t, addr)
		go func() {
			defer wg.Done()
			for landed.Load() < appends {
				lo := int(landed.Load())
				resp, err := cl.Diagnose("acme", nil, nil)
				hi := int(started.Load())
				if err != nil {
					errc <- err
					return
				}
				extra := len(resp.Log) - len(sc.sql)
				if !resp.Resolved || extra < lo || extra > hi {
					errc <- fmt.Errorf("answer over %d appended statements; %d had landed before the request, %d were started after it (resolved=%v)",
						extra, lo, hi, resp.Resolved)
					return
				}
				for k := 0; k < extra; k++ {
					if got := resp.Log[len(sc.sql)+k]; got != stmt(k) {
						errc <- fmt.Errorf("statement %d of the answer is %q, want %q", len(sc.sql)+k, got, stmt(k))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// With Config.TraceDir set, a hit leaves a trace too: one root span
// that says so.
func TestAnswerMemoTraced(t *testing.T) {
	dir := t.TempDir()
	_, addr := startDaemon(t, Config{TraceDir: dir})
	c := dialDaemon(t, addr)
	seedTenant(t, c, "acme", taxScenario(0))
	for i := 0; i < 2; i++ {
		if _, err := c.Diagnose("acme", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	for file, want := range map[string]string{"acme-1.jsonl": "miss", "acme-2.jsonl": "hit"} {
		out, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		root, _, _ := strings.Cut(string(out), "\n")
		if !strings.Contains(root, `"memo":"`+want+`"`) {
			t.Errorf("%s: root span does not carry memo=%s: %s", file, want, root)
		}
	}
}
