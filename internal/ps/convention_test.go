package ps

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
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
	sourceFiles(t, fset, []string{".", "../dcv"}, func(pkgName, _ string, file *ast.File) {
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
	})
}

// TestPolicyConsultedInOnePlace pins the copy store as the one place a
// consistency.Policy judges a copy: outside the consistency package, the
// module's non-test code calls Admit only from the copy store (copies.go)
// and the SSP wait gate (ssp.go).
func TestPolicyConsultedInOnePlace(t *testing.T) {
	root := filepath.Join("..", "..")
	allowed := map[string]bool{
		filepath.Join(root, "internal", "ps", "copies.go"): true,
		filepath.Join(root, "internal", "ps", "ssp.go"):    true,
	}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == ".git" || d.Name() == "testdata" || path == filepath.Join(root, "internal", "consistency") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	sourceFiles(t, fset, dirs, func(_, path string, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Admit" && !allowed[path] {
				t.Errorf("%s: Policy.Admit called outside the copy store; judge copies through admit (copies.go)",
					fset.Position(call.Pos()))
			}
			return true
		})
	})
}

// sourceFiles parses the non-test Go files of each directory and calls fn
// with every file's package name, path and syntax tree.
func sourceFiles(t *testing.T, fset *token.FileSet, dirs []string, fn func(pkgName, path string, file *ast.File)) {
	t.Helper()
	for _, dir := range dirs {
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for pkgName, pkg := range pkgs {
			for path, file := range pkg.Files {
				fn(pkgName, path, file)
			}
		}
	}
}
