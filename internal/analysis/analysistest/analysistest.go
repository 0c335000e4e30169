// Package analysistest is the golden-file test driver for the qfix-vet
// analyzers, modeled on x/tools/go/analysis/analysistest: fixture
// packages live under testdata/, and every line that should be flagged
// carries a `// want "regexp"` comment. The driver runs the analyzer
// (through the same suite runner qfix-vet uses, so //qfix: directives
// and unused-directive reporting behave identically) and fails the test
// on any unmatched expectation or unexpected diagnostic.
//
// Fixture directories are plain directories of .go files — testdata is
// invisible to go build and go vet, so fixtures are free to contain the
// violations they exist to pin. Imports (std or module packages such as
// repro/internal/obs) are resolved through the same `go list -export`
// loader qfix-vet uses.
package analysistest

import (
	"fmt"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// wantRE matches `// want "..."` expectation comments. The quoted text
// is a regular expression matched against "analyzer: message".
var wantRE = regexp.MustCompile(`//\s*want\s+(".*")\s*$`)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// Run analyzes the fixture directory as a package with the given import
// path and checks the produced diagnostics against the fixture's want
// comments. The import path matters: analyzers scoped to solver
// packages only fire when it matches, which lets fixtures assert both
// in-scope findings and out-of-scope silence.
func Run(t *testing.T, dir string, a *analysis.Analyzer, importPath string) {
	t.Helper()
	RunSuite(t, dir, []*analysis.Analyzer{a}, importPath)
}

// RunSuite is Run with several analyzers sharing the package walk, the
// directive index, and the unused-directive check — exactly how the
// qfix-vet binary drives them.
func RunSuite(t *testing.T, dir string, analyzers []*analysis.Analyzer, importPath string) {
	t.Helper()
	RunDirs(t, analyzers, Dir{Path: dir, ImportPath: importPath})
}

// A Dir names one fixture directory and the import path to check it
// under.
type Dir struct {
	Path       string
	ImportPath string
}

// RunDirs analyzes several fixture directories in order through one
// shared loader and fact store — the multi-package analogue of
// RunSuite, for fixtures that exercise cross-package facts. Earlier
// directories play the dependency role (their checked types and
// exported facts are visible to later ones), and every directory's
// want expectations are checked.
func RunDirs(t *testing.T, analyzers []*analysis.Analyzer, dirs ...Dir) {
	t.Helper()
	loader := analysis.NewLoader(".")
	facts := analysis.NewFactStore()
	for _, d := range dirs {
		pkg, err := loader.LoadDir(d.Path, d.ImportPath)
		if err != nil {
			t.Fatalf("loading %s: %v", d.Path, err)
		}
		diags, err := analysis.Run(pkg, analyzers, facts)
		if err != nil {
			t.Fatalf("running suite on %s: %v", d.Path, err)
		}
		checkExpectations(t, pkg, diags)
	}
}

// checkExpectations matches diagnostics against the fixture's want
// comments in both directions.
func checkExpectations(t *testing.T, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	expects := collectWants(t, pkg)
	for _, d := range diags {
		matched := false
		for _, e := range expects {
			if e.file == d.Pos.Filename && e.line == d.Pos.Line &&
				e.re.MatchString(d.Analyzer+": "+d.Message) {
				e.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s:%d: %s: %s",
				d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
		}
	}
	for _, e := range expects {
		if !e.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.re)
		}
	}
}

// collectWants harvests the `// want "re"` expectations from the
// fixture's comments.
func collectWants(t *testing.T, pkg *analysis.Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				quoted := m[1]
				text, err := strconv.Unquote(quoted)
				if err != nil {
					t.Fatalf("%s: bad want string %s: %v", pkg.Fset.Position(c.Slash), quoted, err)
				}
				re, err := regexp.Compile(text)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", pkg.Fset.Position(c.Slash), text, err)
				}
				pos := pkg.Fset.Position(c.Slash)
				out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return out
}

// Describe renders a position set for failure messages (kept exported
// for ad-hoc debugging of new fixtures).
func Describe(fset *token.FileSet, diags []analysis.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "%s\n", d.String())
	}
	return b.String()
}
