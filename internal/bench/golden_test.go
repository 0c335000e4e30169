package bench

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden from this run")

// TestExperimentsMatchGolden runs every experiment at quick scale with
// one repetition and compares each table's deterministic columns — its
// ID, title, x label and caption, and per row the series, x, accuracy,
// solved share and note — with testdata/experiments.golden. Timings are
// left out: they are context, not results. A change to a driver that
// moves a workload, a seed, an order or a note shows here as a diff;
// `go test -run TestExperimentsMatchGolden ./internal/bench -update`
// rewrites the file when the change is meant.
func TestExperimentsMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: runs all 15 experiments")
	}
	var b strings.Builder
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, e := range Experiments() {
		table, err := e.Run(&Runner{Scale: Quick, Seed: 1, Reps: 1})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Fprintf(&b, "== %s\nID: %s\nTitle: %s\nXLabel: %s\nCaption: %s\n",
			e.ID, table.ID, table.Title, table.XLabel, table.Caption)
		for _, r := range table.Rows {
			fmt.Fprintf(&b, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
				r.Series, r.X, f(r.Precision), f(r.Recall), f(r.F1), f(r.Solved), r.Note)
		}
	}
	const path = "testdata/experiments.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n got %q\nwant %q", i+1, g, w)
			}
		}
	}
}
