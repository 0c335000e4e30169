// Command qfix-bench regenerates the QFix paper's evaluation figures.
//
// Usage:
//
//	qfix-bench -fig fig6b            # one figure
//	qfix-bench -fig all              # the whole evaluation
//	qfix-bench -fig fig9 -scale large -reps 5 -seed 7
//
// Output is one aligned text table per figure, with the same series the
// paper plots (latency plus precision/recall/F1). See the "Benchmarks"
// section of README.md for the experiment list and what each reproduces.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "figure id (see -list) or 'all'")
		scale   = flag.String("scale", "default", "experiment scale: quick | default | large")
		reps    = flag.Int("reps", 0, "repetitions per point (0 = scale default)")
		seed    = flag.Int64("seed", 1, "base random seed")
		limit   = flag.Duration("timelimit", 0, "per-solve time limit (0 = scale default)")
		verbose = flag.Bool("v", false, "progress output")
		list    = flag.Bool("list", false, "list experiments and exit")
		jsonDir = flag.String("json", "", "also write each table as BENCH_<id>.json in this directory")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	sc, err := bench.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	r := &bench.Runner{Scale: sc, Seed: *seed, Reps: *reps, TimeLimit: *limit}
	if *verbose {
		r.Out = os.Stderr
	}
	if *jsonDir != "" {
		// Fail fast: experiments can run for hours, so a bad output
		// directory must not surface only at the first write.
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	var exps []bench.Experiment
	if *fig == "all" {
		exps = bench.Experiments()
	} else {
		e, ok := bench.Lookup(*fig)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q; use -list\n", *fig)
			os.Exit(2)
		}
		exps = []bench.Experiment{e}
	}

	start := time.Now()
	for _, e := range exps {
		t0 := time.Now()
		table, err := e.Run(r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(table.String())
		if *jsonDir != "" {
			path := filepath.Join(*jsonDir, "BENCH_"+e.ID+".json")
			table.Machine = machine()
			raw, err := json.MarshalIndent(table, "", "  ")
			if err == nil {
				err = os.WriteFile(path, raw, 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: writing %s: %v\n", e.ID, path, err)
				os.Exit(1)
			}
			fmt.Printf("(wrote %s)\n", path)
		}
		fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Printf("total: %v\n", time.Since(start).Round(time.Millisecond))
}

// machine describes this run for the JSON record: core count,
// GOMAXPROCS, toolchain and the commit of the checkout.
func machine() bench.Machine {
	return bench.Machine{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit("")}
}

// commit names the checkout at dir ("" = the working directory): the
// short hash of HEAD, suffixed "-dirty" when the tree has changes or
// untracked files that HEAD does not hold (or git cannot tell), or
// "unknown" outside git.
func commit(dir string) string {
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = dir
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	sha, err := git("rev-parse", "--short", "HEAD")
	if err != nil {
		return "unknown"
	}
	if status, err := git("status", "--porcelain"); err != nil || status != "" {
		sha += "-dirty"
	}
	return sha
}
