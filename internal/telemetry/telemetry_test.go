package telemetry

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// serve starts Server(r) on a loopback httptest listener.
func serve(t *testing.T, r *obs.Registry) *httptest.Server {
	t.Helper()
	srv := httptest.NewUnstartedServer(nil)
	srv.Config = Server(r)
	srv.Start()
	t.Cleanup(srv.Close)
	return srv
}

func TestTelemetryEndpoints(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("qfix_test_total", "test counter").Add(9)
	r.Histogram("qfix_test_seconds", "test hist", []float64{1}).Observe(0.25)
	srv := serve(t, r)

	get := func(path string) (string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	metrics, ctype := get("/metrics")
	if !strings.Contains(ctype, "text/plain") {
		t.Fatalf("/metrics content-type = %q", ctype)
	}
	for _, want := range []string{
		"qfix_test_total 9",
		"# TYPE qfix_test_seconds histogram",
		`qfix_test_seconds_bucket{le="1"} 1`,
		`qfix_test_seconds_bucket{le="+Inf"} 1`,
		"qfix_test_seconds_count 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	vars, ctype := get("/debug/vars")
	if !strings.Contains(ctype, "application/json") {
		t.Fatalf("/debug/vars content-type = %q", ctype)
	}
	var parsed map[string]any
	if err := json.Unmarshal([]byte(vars), &parsed); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if parsed["qfix_test_total"] != float64(9) {
		t.Fatalf("/debug/vars qfix_test_total = %v", parsed["qfix_test_total"])
	}

	if body, _ := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ index missing profiles:\n%s", body)
	}
}

// A client that stalls must not hold its connection forever: the
// server closes it once the stall timeout passes, whether the client
// stopped halfway through a request line or went quiet on a keep-alive
// connection after a complete request.
func TestServerDropsStalledClients(t *testing.T) {
	defer func(d time.Duration) { stallTimeout = d }(stallTimeout)
	stallTimeout = 100 * time.Millisecond
	srv := serve(t, obs.NewRegistry())

	for _, sent := range []string{
		"GET /metr",
		"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n",
	} {
		conn, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(conn, sent); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		_, err = io.ReadAll(conn)
		conn.Close()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatalf("after %q the server still held the connection 10s later", sent)
			}
			t.Fatal(err)
		}
	}
}
