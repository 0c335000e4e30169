package qfix_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// Every exported identifier outside a main package is surface some
// other package may come to depend on. TestExportedSurfaceBudget counts
// the top-level ones (functions, types, variables and constants; not
// methods or fields) in the module's non-test files. The budget may
// only be lowered: a new export has to retire an old one.
func TestExportedSurfaceBudget(t *testing.T) {
	const budget = 253
	n := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if f.Name.Name != "main" {
			n += exportedTopLevel(f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d top-level exported identifiers, budget is %d", n, budget)
	if n > budget {
		t.Error("over budget: retire an export for each new one")
	} else if n < budget {
		t.Logf("lower the budget to %d", n)
	}
}

func exportedTopLevel(f *ast.File) int {
	n := 0
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				n++
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						n++
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							n++
						}
					}
				}
			}
		}
	}
	return n
}
