package ps

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestOneFormPerOperator pins the operator convention of this package and
// the DCV layer over their non-test source: an operator is one exported
// method that returns its error — no Try-prefixed twin — and the only places
// that turn an error into a panic are the Must helpers.
func TestOneFormPerOperator(t *testing.T) {
	mayPanic := map[string]bool{
		"ps.Must": true, "ps.MustOK": true,
		"dcv.Vector.Pull": true, "dcv.Vector.MustDerive": true,
	}
	fset := token.NewFileSet()
	for _, dir := range []string{".", "../dcv"} {
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for pkgName, pkg := range pkgs {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok {
						continue
					}
					name := pkgName + "." + fn.Name.Name
					if fn.Recv != nil {
						recv := fn.Recv.List[0].Type
						if star, ok := recv.(*ast.StarExpr); ok {
							recv = star.X
						}
						if id, ok := recv.(*ast.Ident); ok {
							name = pkgName + "." + id.Name + "." + fn.Name.Name
						}
					}
					if fn.Name.IsExported() && strings.HasPrefix(fn.Name.Name, "Try") {
						t.Errorf("%s: %s has a Try prefix; operators have one error-returning form",
							fset.Position(fn.Pos()), name)
					}
					if fn.Body == nil || mayPanic[name] {
						continue
					}
					ast.Inspect(fn.Body, func(n ast.Node) bool {
						call, ok := n.(*ast.CallExpr)
						if !ok || len(call.Args) != 1 {
							return true
						}
						f, isIdent := call.Fun.(*ast.Ident)
						arg, argIdent := call.Args[0].(*ast.Ident)
						if isIdent && argIdent && f.Name == "panic" && arg.Name == "err" {
							t.Errorf("%s: panic(err) in %s; return the error, callers wrap in Must",
								fset.Position(call.Pos()), name)
						}
						return true
					})
				}
			}
		}
	}
}
