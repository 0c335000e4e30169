package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// benchmarkSpec is the part of BENCHMARK.json the harness reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is
// what the benchmark's acceptance check uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(math.Floor(pos))
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// trueMedian interpolates, unlike the nearest-rank percentile used for
// latencies: with six runs the middle is between two of them.
func trueMedian(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// selfCheck measures the benchmark's own noise: every workload n times,
// in alternation, each run a fresh process as the acceptance pipeline
// runs them. For each end-to-end metric it prints the median, the
// quartiles and their distance as a share of the median (the spread the
// bound must cover), (max-min)/median, and how far the medians of the
// odd and the even runs are apart. It fails when a spread or a
// set-median difference exceeds the metric's bound; like the acceptance
// check it lets the spread of setup_s pass and holds only its set
// medians to the bound.
func selfCheck(ctx context.Context, env runConfig, n int, seed int64, seconds float64) error {
	if n < 5 {
		return fmt.Errorf("-selfcheck needs at least 5 runs, got %d", n)
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{} // workload -> metric -> one value per run
	for i := 0; i < n; i++ {
		for _, def := range workloads {
			args := []string{"-workload", def.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0"}
			if env.qfixBin != "" {
				args = append(args, "-qfix", env.qfixBin)
			}
			cmd := exec.CommandContext(ctx, self, args...)
			// On a signal, pass it on so that the run removes its scratch
			// directory, and wait for it.
			cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("run %d of %s: %w", i+1, def.name, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res resultJSON
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("run %d of %s: %w", i+1, def.name, err)
			}
			if !res.Correct {
				return fmt.Errorf("run %d of %s: %d of %d diagnoses failed", i+1, def.name, res.Failed, res.Attempted)
			}
			if values[def.name] == nil {
				values[def.name] = map[string][]float64{}
			}
			for name, v := range res.Metrics {
				values[def.name][name] = append(values[def.name][name], v.Value)
			}
		}
	}

	var table bytes.Buffer
	fmt.Fprintf(&table, "| workload | metric | median | q1 | q3 | (q3-q1)/median | (max-min)/median | odd vs even medians | bound | |\n")
	fmt.Fprintf(&table, "|---|---|---|---|---|---|---|---|---|---|\n")
	exceeded := 0
	for _, def := range workloads {
		for _, metric := range spec.EndToEnd {
			xs := values[def.name][metric.Name]
			var odd, even []float64
			for i, x := range xs {
				if i%2 == 0 {
					odd = append(odd, x)
				} else {
					even = append(even, x)
				}
			}
			med := trueMedian(xs)
			q1, q3 := quartiles(xs)
			s := append([]float64(nil), xs...)
			sort.Float64s(s)
			spread := ratio(q3-q1, med)
			sets := ratio(math.Abs(trueMedian(odd)-trueMedian(even)), med)
			verdict := "ok"
			if (spread > metric.Bound && metric.Name != "setup_s") || sets > metric.Bound {
				verdict = "EXCEEDS"
				exceeded++
			}
			fmt.Fprintf(&table, "| %s | %s (%s) | %.4g | %.4g | %.4g | %.1f%% | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				def.name, metric.Name, metric.Unit, med, q1, q3, 100*spread,
				100*ratio(s[len(s)-1]-s[0], med), 100*sets, 100*metric.Bound, verdict)
		}
	}
	os.Stdout.Write(table.Bytes())
	if exceeded > 0 {
		return fmt.Errorf("%d metric x workload pairs exceed their bound", exceeded)
	}
	return nil
}
