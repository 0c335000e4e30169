// Command qfix-vet runs the qfix static-analysis suite (detmap,
// ctxloop, spanend, detclock, lockcheck, wiredrift — see
// internal/analysis) over Go packages:
//
//	qfix-vet ./...                     # patterns default to ./...
//	qfix-vet -write-wire-lock ./...
//
// It loads and type-checks packages itself via `go list -export`,
// prints every diagnostic that survives the //qfix:*-ok directives as
// a `file:line:col: analyzer: message` line, and exits 1 if there was
// any (2 if the packages could not be loaded). Cross-package facts flow
// through one in-process store: go list -deps orders dependencies
// first, so a package's facts are ready before its dependents run.
//
// -write-wire-lock regenerates the per-package wire.lock goldens the
// wiredrift analyzer diffs against.
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
	writeWireLock := flag.Bool("write-wire-lock", false, "regenerate wire.lock goldens for matching packages and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: qfix-vet [-write-wire-lock] [packages]   (patterns default to ./...)\n\n")
		fmt.Fprintf(os.Stderr, "Analyzers:\n")
		for _, a := range analysis.Suite() {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	if *writeWireLock {
		os.Exit(writeWireLocks(flag.Args()))
	}
	os.Exit(vet(flag.Args()))
}

// loadPatterns lists and type-checks the module packages matching the
// patterns (default ./...) from the current directory.
func loadPatterns(patterns []string) (string, []*analysis.Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", nil, err
	}
	pkgs, err := analysis.NewLoader(dir).Load(patterns...)
	return dir, pkgs, err
}

// vet loads the packages matching the patterns and prints every
// surviving diagnostic, one per line, go-vet style.
func vet(patterns []string) int {
	dir, pkgs, err := loadPatterns(patterns)
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

// writeWireLocks regenerates the wire.lock golden of every matching
// package that has wire message structs.
func writeWireLocks(patterns []string) int {
	_, pkgs, err := loadPatterns(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qfix-vet:", err)
		return 2
	}
	for _, pkg := range pkgs {
		if !analysis.WireDrift.AppliesTo(pkg.Path) {
			continue
		}
		path, err := analysis.WriteWireLock(pkg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qfix-vet:", err)
			return 2
		}
		if path != "" {
			fmt.Printf("wrote %s\n", path)
		}
	}
	return 0
}
