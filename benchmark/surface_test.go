package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// usedProgramSymbols parses the benchmark's non-test sources and returns
// every pkg.Symbol selector whose package is one of the program's.
func usedProgramSymbols(t *testing.T) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || name == "surface.go" {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkgs := map[string]string{} // local name -> last path element
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(path, "clientlog/internal/") {
				continue
			}
			local := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			pkgs[local] = path[strings.LastIndex(path, "/")+1:]
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Obj == nil {
				if pkg, ok := pkgs[id.Name]; ok {
					used[pkg+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	return used
}

// TestSurfaceIsComplete keeps surface.go honest: it must list exactly the
// program symbols the benchmark's sources name.  (Methods called on those
// types are listed in surface.go by hand, next to their type.)
func TestSurfaceIsComplete(t *testing.T) {
	used := usedProgramSymbols(t)
	listed := map[string]bool{}
	for _, s := range surface {
		listed[s.symbol] = true
	}
	var missing, stale []string
	for s := range used {
		if !listed[s] {
			missing = append(missing, s)
		}
	}
	for s := range listed {
		if !used[s] {
			stale = append(stale, s)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("used by the benchmark but not listed in surface.go: %v", missing)
	}
	if len(stale) > 0 {
		t.Errorf("listed in surface.go but no longer used: %v", stale)
	}
}
