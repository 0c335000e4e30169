// Command benchmark is the repository's fixed-work benchmark: four
// workloads that each stress different layers of the QFix stack, seven
// end-to-end metrics per workload, and a traced run that breaks a
// diagnosis down by layer. See README.md in this directory and
// BENCHMARK.json at the repository root.
//
//	go run ./benchmark -workload solver_deep            # end-to-end metrics
//	go run ./benchmark -workload daemon_mixed -trace 1  # per-layer metrics
//	go run ./benchmark -workload all
//	go run ./benchmark -selfcheck 6                     # noise study against the bounds
//	go run ./benchmark -write-manifest                  # regenerate the instance pool
//
// The last line of standard output of a single-workload run is one JSON
// object {correct, attempted, failed, metrics}; diagnostics go to
// standard error. Run it from the repository root.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// Both paths are relative to the repository root, where the benchmark runs.
const (
	specPath     = "BENCHMARK.json"
	manifestPath = "benchmark/manifest.json" // runs read the embedded copy
)

func main() {
	var (
		workload  = flag.String("workload", "all", "solver_deep | cli_oltp_cold | daemon_mixed | fleet_partitioned | all")
		seed      = flag.Int64("seed", 1, "picks the run's instances from the pool, their order in each pass, and the daemon's append traffic")
		seconds   = flag.Float64("seconds", 15, "nominal length of the timed phase; converted to a whole number of passes")
		trace     = flag.Int("trace", 0, "1 = traced run: report the per-layer metrics instead of the end-to-end ones")
		selfcheck = flag.Int("selfcheck", 0, "run every workload this many times (>= 5) and compare the spread with the bounds in BENCHMARK.json")
		write     = flag.Bool("write-manifest", false, "regenerate the instance pool (of -workload, or of all)")
		smoke     = flag.Bool("smoke", false, "tiny size: two instances per class, one pass")
		qfixBin   = flag.String("qfix", "", "a built qfix CLI to use instead of building one (set by -selfcheck for its runs)")
	)
	flag.Parse()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := func() error {
		defer cancel()
		if *write {
			return writeManifest(ctx, manifestPath, *workload)
		}
		names := []string{*workload}
		if *workload == "all" || *selfcheck > 0 {
			names = names[:0]
			for _, def := range workloads {
				names = append(names, def.name)
			}
		}
		for _, name := range names {
			if workloadByName(name) == nil {
				return fmt.Errorf("unknown workload %q", name)
			}
		}
		env, cleanup, err := prepare(ctx, names, *qfixBin)
		if err != nil {
			return err
		}
		defer cleanup()
		if *selfcheck > 0 {
			return selfCheck(ctx, env, *selfcheck, *seed, *seconds)
		}
		for _, name := range names {
			cfg := env
			cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.tiny = name, *seed, *seconds, *trace != 0, *smoke
			cfg.spans = filepath.Join(env.spans, "spans-"+name+".jsonl")
			res, err := run(ctx, cfg)
			if err != nil {
				return err
			}
			line, err := encodeResult(res, cfg.trace)
			if err != nil {
				return err
			}
			if _, err := fmt.Printf("%s\n", line); err != nil {
				return err
			}
		}
		return nil
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// prepare makes the run's scratch directory and, when a workload needs
// it, builds the qfix CLI once for the whole invocation: never per
// workload, never inside setup_s. Everything lives under .bench_build/
// in the current directory (the checkout; .gitignore names it) and is
// removed by cleanup, except the spans files of traced runs.
func prepare(ctx context.Context, names []string, qfixBin string) (runConfig, func(), error) {
	base, err := filepath.Abs(".bench_build")
	if err != nil {
		return runConfig{}, nil, err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return runConfig{}, nil, err
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return runConfig{}, nil, err
	}
	env := runConfig{workDir: work, qfixBin: qfixBin, spans: base}
	cleanup := func() { os.RemoveAll(work) }
	needCLI := false
	for _, n := range names {
		needCLI = needCLI || n == cliOLTPCold
	}
	if needCLI && qfixBin == "" {
		env.qfixBin = filepath.Join(work, "qfix")
		t0 := time.Now()
		cmd := exec.CommandContext(ctx, "go", "build", "-o", env.qfixBin, "repro/cmd/qfix")
		if out, err := cmd.CombinedOutput(); err != nil {
			cleanup()
			return runConfig{}, nil, fmt.Errorf("building qfix: %v: %s", err, out)
		}
		env.buildS = time.Since(t0).Seconds()
	}
	return env, cleanup, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// encodeResult renders the run's one-line JSON object: every end-to-end
// metric of an untraced run, every per-layer metric of a traced one.
func encodeResult(res *runResult, traced bool) ([]byte, error) {
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	out := resultJSON{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{Value: res.Metrics[d.name], Unit: d.unit}
	}
	return json.Marshal(out)
}
