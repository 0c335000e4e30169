// Package analysis is qfix's static-analysis suite: a small, stdlib-only
// clone of the golang.org/x/tools/go/analysis model (Analyzer, Pass,
// Diagnostic) plus the three domain analyzers that mechanically enforce
// what no test can observe — deterministic map handling (detmap,
// interprocedural via exported facts), context-aware blocking loops and
// goroutines (ctxloop), and no wall-clock or randomness in deterministic
// solver paths (detclock). Invariants a running program can check live
// elsewhere: span pairing in internal/obs's exporters, which refuse a
// span never ended; the wire schemas in each wire package's TestWireLock;
// mutex contracts in the -race tests. The x/tools module itself is
// deliberately not a dependency: the repo builds offline, so the
// framework here mirrors the upstream API shape on top of go/ast +
// go/types only, and cmd/qfix-vet is the one command that runs it,
// loading packages itself and sharing one in-process FactStore across
// the load.
//
// Findings are suppressed site-by-site with comment directives:
//
//	//qfix:det-ok <reason>   (detmap, detclock)
//	//qfix:ctx-ok <reason>   (ctxloop)
//
// A directive suppresses diagnostics on its own line or the line
// directly below it (so it can ride at end-of-line or as a standalone
// comment above the site). Directives that suppress nothing are
// themselves reported — a stale allowlist is exactly the kind of silent
// rot this suite exists to prevent.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one suite check. The shape mirrors
// x/tools/go/analysis.Analyzer so the checks read idiomatically and
// could be ported onto the upstream driver wholesale if the dependency
// ever lands.
type Analyzer struct {
	Name string
	Doc  string

	// Directive is the //qfix: directive name (e.g. "det-ok") that
	// suppresses this analyzer's findings at a site.
	Directive string

	// Packages restricts the analyzer to packages whose import path
	// ends with one of these suffixes (after stripping any test-variant
	// decoration). Empty means every package.
	Packages []string

	Run func(*Pass) error
}

// AppliesTo reports whether the analyzer runs on the package with the
// given import path. Test-variant paths like "p [p.test]" are matched
// by their base package.
func (a *Analyzer) AppliesTo(path string) bool {
	return pathInScope(path, a.Packages)
}

// pathInScope is the suffix-match scope rule shared by AppliesTo and
// analyzers with internally narrower sub-scopes (detmap's range check).
func pathInScope(path string, suffixes []string) bool {
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	if len(suffixes) == 0 {
		return true
	}
	for _, suf := range suffixes {
		if path == suf || strings.HasSuffix(path, "/"+suf) {
			return true
		}
	}
	return false
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	suite *suiteState // shared directive index + diagnostic sink
	facts *FactStore  // dependency facts in, this package's facts out
}

// ImportedFacts returns the fact set exported by the package at the
// given import path (empty when the dependency exported none or was not
// analyzed).
func (p *Pass) ImportedFacts(path string) *FactSet {
	return p.facts.Package(path)
}

// ExportOrderFact records that the named function's result depends on
// map iteration order, for consumption at call sites in dependent
// packages.
func (p *Pass) ExportOrderFact(fn, note string) {
	if p.facts == nil {
		return
	}
	fs := p.facts.exporting(p.Pkg.Path())
	if fs.OrderDependent == nil {
		fs.OrderDependent = map[string]string{}
	}
	fs.OrderDependent[fn] = note
}

// Reportf records a finding at pos unless a matching directive
// suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suite.suppress(p.Analyzer.Directive, position) {
		return
	}
	p.suite.diags = append(p.suite.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// SuppressedAt reports whether a directive for this analyzer covers
// pos, without consuming it: a site the author has reasoned about
// should not keep leaking derived facts to other packages.
func (p *Pass) SuppressedAt(pos token.Pos) bool {
	return p.suite.covered(p.Analyzer.Directive, p.Fset.Position(pos))
}

// A Diagnostic is one reported finding, positioned and attributed.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// directiveRE matches a qfix suppression directive comment. The reason
// text is free-form but encouraged: it is the durable record of why the
// site is exempt.
var directiveRE = regexp.MustCompile(`^//qfix:([a-z-]+)(?:\s+(.*))?$`)

// A directive is one //qfix:NAME-ok comment, tracked so unused ones can
// be reported.
type directive struct {
	name string // e.g. "det-ok"
	pos  token.Position
	used bool
}

type suiteState struct {
	directives []*directive
	// eligible collects the directive names owned by analyzers that
	// actually ran on the package; only those can be declared unused.
	eligible map[string]bool
	diags    []Diagnostic
}

// suppress consumes a directive covering the diagnostic position:
// same file, and the directive sits on the diagnostic's line or the
// line above it.
func (s *suiteState) suppress(name string, pos token.Position) bool {
	ok := false
	for _, d := range s.directives {
		if d.name != name || d.pos.Filename != pos.Filename {
			continue
		}
		if d.pos.Line == pos.Line || d.pos.Line == pos.Line-1 {
			d.used = true
			ok = true
		}
	}
	return ok
}

// covered is suppress without consuming: analyzers use it to keep
// derived state (exported facts) consistent with a suppressed finding.
func (s *suiteState) covered(name string, pos token.Position) bool {
	for _, d := range s.directives {
		if d.name != name || d.pos.Filename != pos.Filename {
			continue
		}
		if d.pos.Line == pos.Line || d.pos.Line == pos.Line-1 {
			return true
		}
	}
	return false
}

// Run executes every applicable analyzer from the suite over pkg and
// returns the surviving diagnostics (including unused-directive
// findings), sorted by position. Directives are shared across the
// analyzers of one package so a single site needs a single annotation.
// facts carries dependency fact sets in and receives this package's
// exports under its import path; nil disables fact propagation.
func Run(pkg *Package, analyzers []*Analyzer, facts *FactStore) ([]Diagnostic, error) {
	st := &suiteState{eligible: map[string]bool{}}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := directiveRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				st.directives = append(st.directives, &directive{
					name: m[1],
					pos:  pkg.Fset.Position(c.Slash),
				})
			}
		}
	}
	for _, a := range analyzers {
		if !a.AppliesTo(pkg.Path) {
			continue
		}
		st.eligible[a.Directive] = true
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			suite:     st,
			facts:     facts,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	for _, d := range st.directives {
		if !d.used && st.eligible[d.name] {
			st.diags = append(st.diags, Diagnostic{
				Pos:      d.pos,
				Analyzer: "directive",
				Message:  fmt.Sprintf("unused //qfix:%s directive: nothing on this or the next line is flagged", d.name),
			})
		}
	}
	sort.Slice(st.diags, func(i, j int) bool {
		a, b := st.diags[i], st.diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return st.diags, nil
}

// Suite returns the full qfix-vet analyzer set in a fixed order.
func Suite() []*Analyzer {
	return []*Analyzer{DetMap, CtxLoop, DetClock}
}
