package qfixd

import (
	"bufio"
	"bytes"
	"net"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/frameconn"
)

// A client that streams a request past frameconn.MaxFrame without ever
// ending the line costs its own connection, and no more than the cap of
// memory; the daemon goes on answering everyone else.
func TestServerBoundsRequestFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 65 MiB over loopback")
	}
	_, addr := startDaemon(t, Config{})
	c := dialDaemon(t, addr)
	seedTenant(t, c, "acme", taxScenario(0))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	chunk := bytes.Repeat([]byte("a"), 1<<20)
	for sent := 0; sent < frameconn.MaxFrame+1<<20; sent += len(chunk) {
		if _, err := conn.Write(chunk); err != nil {
			break // the daemon hung up, as it should
		}
	}
	if _, err := bufio.NewReader(conn).ReadByte(); err == nil {
		t.Error("the daemon answered an endless line")
	}
	runtime.ReadMemStats(&after)
	if grown := int64(after.Sys) - int64(before.Sys); grown > 4*frameconn.MaxFrame {
		t.Errorf("the process grew by %d MiB on a line capped at %d MiB", grown>>20, frameconn.MaxFrame>>20)
	}

	if err := c.Ping(); err != nil {
		t.Fatalf("the connection that behaved was dropped too: %v", err)
	}
	if resp, err := dialDaemon(t, addr).Diagnose("acme", nil, nil); err != nil || !resp.Resolved {
		t.Fatalf("a new connection after the long line: %v", err)
	}
}

// A complaint whose values do not cover the table's attributes is the
// client's error, answered as one; it takes nothing else down, and
// another tenant's diagnosis on the same connection still resolves.
func TestDiagnoseRejectsComplaintArity(t *testing.T) {
	_, addr := startDaemon(t, Config{})
	c := dialDaemon(t, addr)
	seedTenant(t, c, "acme", taxScenario(0))
	seedTenant(t, c, "globex", taxScenario(1000))

	short := []core.Complaint{{TupleID: 3, Exists: true, Values: []float64{86000}}}
	if _, err := c.Diagnose("acme", short, nil); err == nil || !strings.Contains(err.Error(), "1 values for 3 attributes") {
		t.Fatalf("diagnose with a one-value complaint: %v", err)
	}
	want, _, _ := cliRepair(t, taxScenario(1000))
	resp, err := c.Diagnose("globex", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Resolved || strings.Join(resp.Log, "\n") != strings.Join(want, "\n") {
		t.Fatalf("the other tenant's diagnosis: resolved=%v log=%q, want %q", resp.Resolved, resp.Log, want)
	}
}
