package qfixd

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/frameconn"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/sqlparse"
)

// fakeDaemon accepts one connection and hands it to serve.
func fakeDaemon(t *testing.T, serve func(net.Conn)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		serve(conn)
	}()
	t.Cleanup(func() {
		l.Close()
		wg.Wait()
	})
	return l.Addr().String()
}

// A peer that streams a "frame" past frameconn.MaxFrame without ever
// ending the line is given up on: every pending request fails with the
// reason, and the client has buffered no more than the bound to find out.
func TestClientBoundsResponseFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 65 MiB over loopback")
	}
	release := make(chan struct{})
	addr := fakeDaemon(t, func(conn net.Conn) {
		// Wait for both requests, then answer with an endless line.
		br := bufio.NewReader(conn)
		for i := 0; i < 2; i++ {
			if _, err := br.ReadBytes('\n'); err != nil {
				return
			}
		}
		chunk := bytes.Repeat([]byte("a"), 1<<20)
		for sent := 0; sent < frameconn.MaxFrame+1<<20; sent += len(chunk) {
			if _, err := conn.Write(chunk); err != nil {
				break // the client hung up, as it should
			}
		}
		<-release // never a newline, never a close: the client must not be waiting for either
	})
	defer close(release)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := dialDaemon(t, addr)
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { errs <- c.Ping() }()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err == nil || !errors.Is(err, frameconn.ErrFrameTooLong) {
			t.Fatalf("pending request ended with %v, want %v", err, frameconn.ErrFrameTooLong)
		}
	}
	if err := c.Ping(); !errors.Is(err, frameconn.ErrFrameTooLong) {
		t.Fatalf("a request after the failure got %v, want the sticky %v", err, frameconn.ErrFrameTooLong)
	}
	runtime.ReadMemStats(&after)
	if grown := int64(after.Sys) - int64(before.Sys); grown > 4*frameconn.MaxFrame {
		t.Errorf("the process grew by %d MiB reading a frame capped at %d MiB", grown>>20, frameconn.MaxFrame>>20)
	}
}

// SQL crosses the wire as SQL. Comparison operators are not escaped for
// HTML in either direction, on any encoder; names and error text that
// need JSON escapes or are not ASCII still round-trip exactly.
func TestSQLTextRoundTrip(t *testing.T) {
	_, addr := startDaemon(t, Config{})
	c := dialDaemon(t, addr)

	// The grammar is ASCII and has no quoting, so `"`, `\`, `&` and
	// non-ASCII letters can reach the wire in names and in the errors
	// that quote rejected input, not in a stored statement.
	attrs := []string{"income", "owed", "pay", `nötiz "a\b" <&>`}
	sc := taxScenario(0)
	rows := make([][]float64, len(sc.rows))
	for i, r := range sc.rows {
		rows[i] = append(append([]float64(nil), r...), float64(i))
	}
	if err := c.Create("acme", "Taxes", "", attrs, rows); err != nil {
		t.Fatal(err)
	}
	sql := []string{
		"UPDATE Taxes SET owed = income * 0.3 WHERE income >= 85700 AND owed < 50000",
		"INSERT INTO Taxes VALUES (85800, 21450, 0, 7)",
		"UPDATE Taxes SET pay = income - owed WHERE owed <= 50000 AND pay > -1",
	}
	if err := c.Append("acme", sql...); err != nil {
		t.Fatal(err)
	}
	complaints := make([]core.Complaint, len(sc.complaints))
	for i, cm := range sc.complaints {
		complaints[i] = core.Complaint{TupleID: cm.TupleID, Exists: true,
			Values: append(append([]float64(nil), cm.Values...), float64(cm.TupleID-1))}
	}
	resp, err := c.Diagnose("acme", complaints, nil)
	if err != nil {
		t.Fatal(err)
	}
	sch := relation.MustSchema("Taxes", attrs, "")
	want := make([]string, len(sql))
	for i, stmt := range sql {
		q, err := sqlparse.Parse(sch, stmt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = q.String(sch)
	}
	if !resp.Resolved || len(resp.Changed) != 1 || resp.Changed[0] != 0 {
		t.Fatalf("resolved=%v changed=%v", resp.Resolved, resp.Changed)
	}
	if !reflect.DeepEqual(resp.Log[1:], want[1:]) {
		t.Fatalf("untouched statements came back as %q, want %q", resp.Log[1:], want[1:])
	}
	if !strings.Contains(resp.Log[0], "income >= 8") || !strings.Contains(resp.Log[0], "owed < 50000") {
		t.Fatalf("repaired statement came back as %q", resp.Log[0])
	}

	// Rejected text comes back quoted in the error, byte for byte.
	for _, bad := range []string{
		`UPDATE Taxes SET owed = 1 WHERE "a\b" <= 1`,
		"UPDATE Taxes SET owed = 1 WHERE owed & 1",
		"UPDATE Taxes SET nötiz = 1",
	} {
		_, perr := sqlparse.Parse(sch, bad)
		err := c.Append("acme", bad)
		if perr == nil || err == nil || !strings.HasSuffix(err.Error(), perr.Error()) {
			t.Errorf("append %q: %v, want the parser's %v", bad, err, perr)
		}
	}
	name := `<tenant "x\y" & ü>`
	if _, err := c.Diagnose(name, complaints, nil); err == nil || !strings.Contains(err.Error(), strconv.Quote(name)) {
		t.Errorf("diagnose of %s: %v, want an error naming it", name, err)
	}
}

// What the encoding/json encoders of both ends put on the wire for `<`,
// `>` and `&`: the bytes themselves, in tenant ops and solves alike.
func TestWireDoesNotEscapeHTML(t *testing.T) {
	stmt := "UPDATE t SET a = 1 WHERE b <= 2 AND c >= 3"
	got := make(chan []byte, 1)
	addr := fakeDaemon(t, func(conn net.Conn) {
		line, _ := bufio.NewReader(conn).ReadBytes('\n')
		got <- line
	})
	c := dialDaemon(t, addr)
	go c.Append("acme", stmt) // fails when the fake daemon hangs up; only the request matters
	if line := <-got; !bytes.Contains(line, []byte(stmt)) {
		t.Errorf("append request does not carry the statement verbatim: %s", line)
	}

	// A solve carries its body's log as the same SQL text.
	sch := relation.MustSchema("t", []string{"a", "b", "c"}, "")
	job, err := dist.EncodeJob(1, core.Subproblem{D0: relation.NewTable(sch),
		Log: []query.Query{sqlparse.MustParse(sch, stmt)}})
	if err != nil {
		t.Fatal(err)
	}
	solver := dist.DialMux(fakeDaemon(t, func(conn net.Conn) {
		line, _ := bufio.NewReader(conn).ReadBytes('\n')
		got <- line
	}))
	defer solver.Close()
	go solver.Do(context.Background(), job)
	if line := <-got; !bytes.Contains(line, []byte(`"op":"solve"`)) || !bytes.Contains(line, []byte(job.Log[0])) ||
		!strings.Contains(job.Log[0], "<=") {
		t.Errorf("solve frame does not carry %q verbatim: %s", job.Log[0], line)
	}

	_, addr = startDaemon(t, Config{})
	raw := dialRaw(t, addr)
	tenant := "<a&b>"
	if tail, _ := raw.diagnose(tenant, nil, nil); !bytes.Contains(tail, []byte(tenant)) {
		t.Errorf("error response does not carry %s verbatim: %s", tenant, tail)
	}
}
