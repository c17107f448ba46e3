package ps2

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// iterationLoops lists the only non-test files allowed a training loop of
// their own, `for it := 0; it < ….Iterations` or a boosting loop `for t := 0;
// t < ….Trees`; every other trainer is a strategy of core.Run or a task of
// core.RunSSP. TestIterationLoopsAreListed fails on an entry whose
// file has no such loop, so the list can only shrink.
var iterationLoops = map[string]string{
	"internal/core/loop.go": "the loop",
	"internal/wire/lr.go":   "the TCP twin of the LR loop",
}

// TestIterationLoopsAreListed parses every non-test Go file of the repository
// and fails on a training loop outside iterationLoops, or an entry without
// one.
func TestIterationLoopsAreListed(t *testing.T) {
	fset := token.NewFileSet()
	found := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name[0] == '.' || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		ast.Inspect(f, func(n ast.Node) bool {
			if loop, ok := n.(*ast.ForStmt); ok && isIterationLoop(loop) {
				found[path] = true
				if _, ok := iterationLoops[path]; !ok {
					t.Errorf("%s: a training loop of its own; make the trainer a strategy of core.Run", fset.Position(loop.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path, why := range iterationLoops {
		if !found[path] {
			t.Errorf("iterationLoops: %s (%s) has no training loop: stale entry, remove it", path, why)
		}
	}
}

// isIterationLoop reports whether loop is `for it := 0; it < x; …` where x
// is a field named Iterations or a variable named iterations, or a boosting
// loop, `for v := 0; v < x; …` over any v where x is a field named Trees.
func isIterationLoop(loop *ast.ForStmt) bool {
	init, ok := loop.Init.(*ast.AssignStmt)
	if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 {
		return false
	}
	v, ok := init.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	if zero, ok := init.Rhs[0].(*ast.BasicLit); !ok || zero.Value != "0" {
		return false
	}
	cond, ok := loop.Cond.(*ast.BinaryExpr)
	if !ok || cond.Op != token.LSS || !isIdent(cond.X, v.Name) {
		return false
	}
	if sel, ok := cond.Y.(*ast.SelectorExpr); ok && sel.Sel.Name == "Trees" {
		return true
	}
	if v.Name != "it" {
		return false
	}
	if sel, ok := cond.Y.(*ast.SelectorExpr); ok {
		return sel.Sel.Name == "Iterations"
	}
	return isIdent(cond.Y, "iterations")
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}
