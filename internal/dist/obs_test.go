package dist_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/telemetry"
)

// TestDistributedTraceAndTelemetry is the observability integration
// check: a traced diagnosis through two real loopback workers must
// produce a well-nested span tree whose remote segments name the worker
// that solved them, the process metrics must count the jobs, and the
// telemetry handler (what qfix-worker -telemetry serves) must expose
// them as Prometheus text. A second traced run goes to a worker that
// drops every job, so each partition ends in a "local"
// fallback span; both trees must export.
func TestDistributedTraceAndTelemetry(t *testing.T) {
	d0, log, complaints := benchInstance(t, 4)

	jobsBefore := obs.Default().Counter("qfix_worker_jobs_total", "").Value()
	distBefore := obs.Default().Counter("qfix_dist_jobs_total", "").Value()

	coord := dist.Connect(dist.Config{Logf: t.Logf}, startWorker(t), startWorker(t))
	defer coord.Close()
	root, got := tracedDiagnose(t, coord, d0, log, complaints, partitionOpts())

	// Remote segments are visible: one partition span per partition,
	// each holding an attempt span whose worker attribute names the
	// address that solved it.
	partitions, attempts := 0, 0
	root.Walk(func(sp *obs.Span, _ int) {
		switch {
		case strings.HasPrefix(sp.Name(), "partition["):
			partitions++
		case sp.Name() == "attempt":
			attempts++
			var worker, outcome any
			for _, a := range sp.Attrs() {
				switch a.Key {
				case "worker":
					worker = a.Value
				case "outcome":
					outcome = a.Value
				}
			}
			if w, ok := worker.(string); !ok || !strings.Contains(w, "127.0.0.1:") {
				t.Errorf("attempt span worker attr = %v, want a loopback address", worker)
			}
			if outcome == nil {
				t.Errorf("attempt span missing outcome attr")
			}
		}
	})
	if partitions != got.Stats.Partitions {
		t.Errorf("trace has %d partition spans, stats report %d partitions",
			partitions, got.Stats.Partitions)
	}
	if attempts < got.Stats.RemoteJobs {
		t.Errorf("trace has %d attempt spans, want >= %d remote jobs",
			attempts, got.Stats.RemoteJobs)
	}

	dead := dist.Connect(dist.Config{Logf: t.Logf}, startCrashingWorker(t))
	defer dead.Close()
	fallback, frep := tracedDiagnose(t, dead, d0, log, complaints, partitionOpts())
	locals := 0
	fallback.Walk(func(sp *obs.Span, _ int) {
		if sp.Name() == "local" {
			locals++
		}
	})
	if locals != frep.Stats.Partitions {
		t.Errorf("fallback trace has %d local spans, want one per partition (%d)", locals, frep.Stats.Partitions)
	}

	// Metrics: loopback workers run in this process, so the worker- and
	// coordinator-side counters land in the same default registry.
	wantJobs := int64(got.Stats.RemoteJobs)
	if d := obs.Default().Counter("qfix_worker_jobs_total", "").Value() - jobsBefore; d < wantJobs {
		t.Errorf("qfix_worker_jobs_total rose by %d, want >= %d", d, wantJobs)
	}
	if d := obs.Default().Counter("qfix_dist_jobs_total", "").Value() - distBefore; d < wantJobs {
		t.Errorf("qfix_dist_jobs_total rose by %d, want >= %d", d, wantJobs)
	}

	// Telemetry endpoint: the same server qfix-worker runs on -telemetry.
	ts := httptest.NewServer(telemetry.Server(obs.Default()).Handler)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q, want text/plain exposition", ct)
	}
	text := string(body)
	for _, name := range []string{
		"qfix_worker_jobs_total", "qfix_worker_job_seconds", "qfix_dist_jobs_total",
	} {
		if !strings.Contains(text, "# TYPE "+name) {
			t.Errorf("/metrics missing %s:\n%.1000s", name, text)
		}
	}
}

// tracedDiagnose runs one traced diagnosis through coord and checks its
// tree: resolved, well nested, and exportable in both formats (which
// the exporters refuse while any span is left un-ended).
func tracedDiagnose(t *testing.T, coord *dist.Coordinator, d0 *relation.Table, log []query.Query,
	complaints []core.Complaint, opts core.Options) (*obs.Span, *core.Repair) {
	t.Helper()
	root := obs.NewTrace("qfix")
	opts.Trace = root
	rep, err := coord.Diagnose(d0, log, complaints, opts)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if !rep.Resolved {
		t.Fatalf("distributed diagnosis unresolved: %+v", rep.Stats)
	}
	for _, export := range []func(io.Writer, *obs.Span) error{obs.WriteJSONL, obs.WriteChromeTrace} {
		if err := export(io.Discard, root); err != nil {
			t.Fatal(err)
		}
	}
	if !root.WellNested(5 * time.Millisecond) {
		t.Fatalf("trace not well-nested:\n%s", root.Structure())
	}
	return root, rep
}
