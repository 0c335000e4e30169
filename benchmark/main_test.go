package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSpecMatchesHarness holds BENCHMARK.json and the harness's metric
// tables equal: same workloads, same metric names in the same order,
// same units.
func TestSpecMatchesHarness(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, w.Name, workloads[i].name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, declared []specMetric, emitted []metricDef) {
		if len(declared) != len(emitted) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the harness emits %d", kind, len(declared), len(emitted))
		}
		seen := map[string]bool{}
		for i, d := range declared {
			e := emitted[i]
			if d.Name != e.name || d.Unit != e.unit {
				t.Errorf("%s metric %d: BENCHMARK.json says %s [%s], the harness %s [%s]", kind, i, d.Name, d.Unit, e.name, e.unit)
			}
			if !name.MatchString(d.Name) {
				t.Errorf("%s metric name %q is not made of [A-Za-z0-9_.-]", kind, d.Name)
			}
			if seen[d.Name] {
				t.Errorf("%s metric %q declared twice", kind, d.Name)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s metric %q: better is %q", kind, d.Name, d.Better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
}

// layerOwner names the workload that alone exercises a layer.
var layerOwner = map[string]string{
	"histstore": daemonMixed,
	"qfixd":     daemonMixed,
	"dist":      fleetPartitioned,
	"cmd_qfix":  cliOLTPCold,
}

// TestSmoke runs every workload at tiny size, untraced and traced, the
// way main does: every declared metric comes out once with its unit,
// nothing fails, the manifest's expectations hold at seed 1 (repairs,
// F1 and the exactly-repeating counts), and the spans are well nested.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("solver-bound; skipped with -short like the other MILP-heavy tests")
	}
	work := t.TempDir()
	qfix := filepath.Join(work, "qfix")
	if out, err := exec.Command("go", "build", "-o", qfix, "repro/cmd/qfix").CombinedOutput(); err != nil {
		t.Fatalf("building qfix: %v: %s", err, out)
	}
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: def.name, seed: 1, seconds: 1, trace: traced, tiny: true,
				workDir: work, qfixBin: qfix, spans: filepath.Join(work, "spans-"+def.name+".jsonl")}
			res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", def.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d", def.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			line, err := encodeResult(res, traced)
			if err != nil {
				t.Fatal(err)
			}
			var out resultJSON
			if err := json.Unmarshal(line, &out); err != nil {
				t.Fatal(err)
			}
			defs := endToEndMetrics
			if traced {
				defs = perLayerMetrics
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s (trace %v): %d metrics printed, %d declared", def.name, traced, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				// A layer only one workload exercises reports 0 elsewhere.
				owner, owned := layerOwner[strings.SplitN(d.name, ".", 2)[0]]
				if _, computed := res.Metrics[d.name]; computed != (!owned || owner == def.name) {
					t.Errorf("%s (trace %v): %s computed=%v", def.name, traced, d.name, computed)
				}
				if got := out.Metrics[d.name]; got.Unit != d.unit {
					t.Errorf("%s (trace %v): %s printed with unit %q, declared %q", def.name, traced, d.name, got.Unit, d.unit)
				}
			}
			if !traced {
				for _, d := range defs {
					if res.Metrics[d.name] <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", def.name, d.name, res.Metrics[d.name])
					}
				}
				continue
			}
			if drift := res.Metrics["harness.manifest_count_drift"]; drift != 0 {
				t.Errorf("%s: manifest count drift %.2f at seed 1: regenerate with -write-manifest", def.name, drift)
			}
			checkSpans(t, cfg.spans)
		}
	}
}

// checkSpans re-reads a spans file: every span lies within its parent
// and every diagnosis span carries its id.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type span struct {
		ID, Parent int
		Name       string
		Start      int64 `json:"start_us"`
		Dur        int64 `json:"dur_us"`
		Attrs      map[string]any
	}
	var spans []span
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	diagnoses := 0
	const slackUS = 1000
	for _, s := range spans {
		if s.Name == "diagnosis" {
			diagnoses++
			if _, ok := s.Attrs["diag"]; !ok {
				t.Errorf("%s: diagnosis span %d has no diag id", path, s.ID)
			}
		}
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent] // WriteJSONL numbers spans in file order
		if s.Start+slackUS < p.Start || s.Start+s.Dur > p.Start+p.Dur+slackUS {
			t.Errorf("%s: span %d (%s) is not inside its parent %d (%s)", path, s.ID, s.Name, p.ID, p.Name)
		}
	}
	if diagnoses == 0 {
		t.Errorf("%s: no diagnosis spans", path)
	}
}
