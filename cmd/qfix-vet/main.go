// Command qfix-vet runs the qfix static-analysis suite (detmap, ctxloop,
// detclock — see internal/analysis) over Go packages:
//
//	qfix-vet [packages]                # patterns default to ./...
//
// It loads and type-checks packages itself via `go list -export`,
// prints every diagnostic that survives the det-ok and ctx-ok
// suppression directives as a `file:line:col: analyzer: message` line,
// and exits 1 if there was any (2 if the packages could not be
// loaded). Cross-package facts flow through one in-process store: go
// list -deps orders dependencies first, so a package's facts are ready
// before its dependents run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: qfix-vet [packages]   (patterns default to ./...)\n\n")
		fmt.Fprintf(os.Stderr, "Analyzers:\n")
		for _, a := range analysis.Suite() {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	os.Exit(vet(flag.Args()))
}

// vet loads the module packages matching the patterns (default ./...)
// from the current directory and prints every surviving diagnostic, one
// per line, go-vet style.
func vet(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "qfix-vet:", err)
		return 2
	}
	pkgs, err := analysis.NewLoader(dir).Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qfix-vet:", err)
		return 2
	}
	facts := analysis.NewFactStore()
	failed := false
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg, analysis.Suite(), facts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qfix-vet:", err)
			return 2
		}
		for _, d := range diags {
			failed = true
			if rel, err := filepath.Rel(dir, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				d.Pos.Filename = rel
			}
			fmt.Println(d.String())
		}
	}
	if failed {
		return 1
	}
	return 0
}
