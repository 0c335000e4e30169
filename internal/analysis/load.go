package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A Package is one type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader type-checks packages without golang.org/x/tools: package and
// dependency discovery comes from `go list -export -json`, and imports
// are satisfied from the compiler's export data in the build cache via
// the stdlib gc importer. Everything works offline and from source.
type Loader struct {
	Dir  string // directory to resolve patterns in (module root or below)
	fset *token.FileSet
	imp  types.Importer
	// exports maps import paths to export-data files harvested from go
	// list; grown across calls so analysistest fixtures can resolve
	// both std and module imports.
	exports map[string]string
	// checked caches packages this loader already type-checked from
	// source, keyed by import path. Imports resolve here before falling
	// back to export data, which both keeps one loader's view of a
	// package consistent and lets analysistest fixtures import each
	// other under scoped import paths (the cross-package fact tests).
	checked map[string]*types.Package
}

// NewLoader returns a loader resolving package patterns relative to dir.
func NewLoader(dir string) *Loader {
	l := &Loader{
		Dir:     dir,
		fset:    token.NewFileSet(),
		exports: map[string]string{},
		checked: map[string]*types.Package{},
	}
	l.imp = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := l.exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(f)
	})
	return l
}

// Import satisfies types.Importer: source-checked packages first, then
// the gc export data harvested from go list. The loader itself is the
// types.Config importer, so every check in its lifetime shares one view.
func (l *Loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.checked[path]; ok {
		return pkg, nil
	}
	return l.imp.Import(path)
}

// listedPackage mirrors the `go list -json` fields the loader consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	Module     *struct{ Path, Dir string }
	Error      *struct{ Err string }
}

// golist runs `go list -export -json -deps` over the given patterns and
// folds every export-data file it reports into the loader's import
// resolution map, returning the listed packages.
func (l *Loader) golist(patterns ...string) ([]*listedPackage, error) {
	args := append([]string{"list", "-e", "-export", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Load lists, parses, and type-checks every non-test package matching
// the patterns (e.g. "./..."), skipping standard-library dependencies:
// those are import targets, not analysis targets. Any listed package
// with an error fails the load, including a pattern that matches
// nothing (go list reports it as an error package without files).
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	listed, err := l.golist(patterns...)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Module == nil || len(p.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, f)
		}
		asts, err := l.parse(files)
		if err != nil {
			return nil, err
		}
		pkg, err := l.check(p.ImportPath, asts)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// LoadDir parses and type-checks the .go files directly inside dir as a
// single package under the given import path. It is the analysistest
// entry point: fixture directories live under testdata (invisible to
// go list patterns), so their imports are listed explicitly here to
// pull in export data before checking.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no .go files in %s", dir)
	}
	asts, err := l.parse(files)
	if err != nil {
		return nil, err
	}
	var imports []string
	for _, f := range asts {
		for _, im := range f.Imports {
			imports = append(imports, strings.Trim(im.Path.Value, `"`))
		}
	}
	if len(imports) > 0 {
		if _, err := l.golist(imports...); err != nil {
			return nil, err
		}
	}
	return l.check(importPath, asts)
}

func (l *Loader) parse(files []string) ([]*ast.File, error) {
	var asts []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		asts = append(asts, f)
	}
	return asts, nil
}

func (l *Loader) check(importPath string, asts []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var errs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { errs = append(errs, err) },
	}
	tpkg, err := conf.Check(importPath, l.fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, errors.Join(errs...))
	}
	l.checked[importPath] = tpkg
	return &Package{
		Path:  importPath,
		Fset:  l.fset,
		Files: asts,
		Types: tpkg,
		Info:  info,
	}, nil
}
