package ps

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneFormPerOperator pins the operator convention: a ps or dcv operator
// is one exported method that returns its error — no Try-prefixed twin — and
// in the non-test source of every library package under internal/
// (internal/bench, like cmd/ and examples/, is a program) no function turns
// an error into a panic, apart from the two listed here.
func TestOneFormPerOperator(t *testing.T) {
	mayPanic := map[string]bool{
		"dcv.Vector.Pull":       true, // reads a trained model back; a benchmark calls it
		"dcv.Vector.MustDerive": true, // running out of rows is argument misuse
	}
	fset := token.NewFileSet()
	sourceFiles(t, fset, libraryDirs(t), func(pkgName, _ string, file *ast.File) {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := funcName(pkgName, fn)
			operators := pkgName == "ps" || pkgName == "dcv"
			if operators && fn.Name.IsExported() && strings.HasPrefix(fn.Name.Name, "Try") {
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
					t.Errorf("%s: panic(err) in %s; return the error to the caller",
						fset.Position(call.Pos()), name)
				}
				return true
			})
		}
	})
}

// TestRecoverOnlyForTaskDeath pins the failure contract's last part: a panic
// is a programming error, so nothing recovers one but the simulation kernel
// (internal/simnet), which fails the run with it, and rdd's runAttempt, which
// may test only for taskFailed, the attempt's own abrupt death.
func TestRecoverOnlyForTaskDeath(t *testing.T) {
	root := filepath.Join("..", "..")
	simnetDir := filepath.Join(root, "internal", "simnet")
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == ".git" || d.Name() == "testdata" || d.Name() == "benchmarks" || path == simnetDir {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	runAttempts := 0
	sourceFiles(t, fset, dirs, func(pkgName, _ string, file *ast.File) {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if pkgName == "rdd" && fn.Name.Name == "runAttempt" {
				runAttempts++
				checkRunAttempt(t, fset, fn)
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "recover" {
						t.Errorf("%s: recover() in %s; only internal/simnet and rdd.runAttempt recover",
							fset.Position(call.Pos()), funcName(pkgName, fn))
					}
				}
				return true
			})
		}
	})
	if runAttempts != 1 {
		t.Errorf("found %d rdd.runAttempt functions, want 1", runAttempts)
	}
}

// TestTaskContextBuiltOnlyByRdd pins where taskFailed can be raised: only
// rdd builds a TaskContext, and only for runAttempt, so a Charge or Commit on
// a dead machine always lands in the recover that turns it into a lost
// attempt. Outside internal/rdd, non-test code builds none, neither as a
// literal nor with new.
func TestTaskContextBuiltOnlyByRdd(t *testing.T) {
	root := filepath.Join("..", "..")
	rddDir := filepath.Join(root, "internal", "rdd")
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == ".git" || d.Name() == "testdata" || path == rddDir {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	sourceFiles(t, fset, dirs, func(_, _ string, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			var typ ast.Expr
			switch n := n.(type) {
			case *ast.CompositeLit:
				typ = n.Type
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "new" && len(n.Args) == 1 {
					typ = n.Args[0]
				}
			}
			if typ != nil && types.ExprString(typ) == "rdd.TaskContext" {
				t.Errorf("%s: builds an rdd.TaskContext outside internal/rdd; run the body through rdd.RunTask", fset.Position(n.Pos()))
			}
			return true
		})
	})
}

// funcName names fn as pkg.Func, or pkg.Type.Method for a method.
func funcName(pkgName string, fn *ast.FuncDecl) string {
	if fn.Recv != nil {
		recv := fn.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if id, ok := recv.(*ast.Ident); ok {
			return pkgName + "." + id.Name + "." + fn.Name.Name
		}
	}
	return pkgName + "." + fn.Name.Name
}

// checkRunAttempt fails unless every type assertion in runAttempt is to
// taskFailed, there is one, and it consults no error.
func checkRunAttempt(t *testing.T, fset *token.FileSet, fn *ast.FuncDecl) {
	t.Helper()
	asserts := 0
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeAssertExpr:
			asserts++
			if n.Type == nil || types.ExprString(n.Type) != "taskFailed" {
				t.Errorf("%s: runAttempt's recover tests for %s; it may test only for taskFailed",
					fset.Position(n.Pos()), types.ExprString(n.Type))
			}
		case *ast.TypeSwitchStmt:
			t.Errorf("%s: a type switch in runAttempt; its recover may test only for taskFailed", fset.Position(n.Pos()))
		case *ast.SelectorExpr:
			if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "errors" {
				t.Errorf("%s: runAttempt calls errors.%s; its recover may test only for taskFailed",
					fset.Position(n.Pos()), n.Sel.Name)
			}
		}
		return true
	})
	if asserts == 0 {
		t.Errorf("%s: runAttempt asserts no taskFailed", fset.Position(fn.Pos()))
	}
}

// libraryDirs lists the directories of the library packages under internal/:
// all of them but internal/bench.
func libraryDirs(t *testing.T) []string {
	t.Helper()
	internal := filepath.Join("..")
	var dirs []string
	err := filepath.WalkDir(internal, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" || path == filepath.Join(internal, "bench") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// TestPolicyConsultedInOnePlace pins the copy store as the one place a
// consistency.Policy judges a copy: outside the consistency package, the
// module's non-test code calls Admit only from the copy store (copies.go).
func TestPolicyConsultedInOnePlace(t *testing.T) {
	root := filepath.Join("..", "..")
	allowed := map[string]bool{
		filepath.Join(root, "internal", "ps", "copies.go"): true,
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

// TestColumnOpsDeclaredOnce pins the DCV operator set to one declaration per
// op and one executor. In the DCV layer's non-test source the column-op
// kernels are referenced only inside the op declarations — the functions
// that return a colOp — so no operator form can carry a second copy of one;
// and exactly one ps.Matrix method takes InvokeOps, so a lone op and a fused
// program run through the same executor.
func TestColumnOpsDeclaredOnce(t *testing.T) {
	kernels := map[string]bool{
		"Axpy": true, "Scale": true, "Fill": true, "Dot": true, "Add": true, "Sub": true,
		"Mul": true, "Div": true, "Sum": true, "SumSquares": true, "NnzDense": true,
	}
	fset := token.NewFileSet()
	sourceFiles(t, fset, []string{"../dcv"}, func(_, _ string, file *ast.File) {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Type.Results != nil && len(fn.Type.Results.List) == 1 &&
				types.ExprString(fn.Type.Results.List[0].Type) == "colOp" {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "linalg" && kernels[sel.Sel.Name] {
					t.Errorf("%s: linalg.%s outside an op declaration; declare the op once (a func returning colOp) and run it from there",
						fset.Position(sel.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
	})
	var executors []string
	sourceFiles(t, fset, []string{"."}, func(_, _ string, file *ast.File) {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || types.ExprString(fn.Recv.List[0].Type) != "*Matrix" {
				continue
			}
			for _, param := range fn.Type.Params.List {
				if strings.Contains(types.ExprString(param.Type), "InvokeOp") {
					executors = append(executors, fn.Name.Name)
				}
			}
		}
	})
	if len(executors) != 1 {
		t.Errorf("ps.Matrix methods taking InvokeOps: %v; want exactly one program executor", executors)
	}
}

// TestHostReadsListed pins the trainers to the RPC layer: every access to
// model state outside this package is a request a server applies. In the
// module's other non-test code, only the DCV shuffle, which fetches operand
// slices between servers, names a server's machine (Matrix.ServerNode), and
// shard memory is read on the host (Matrix.HostShard) only by the functions
// listed here, each with its reason.
func TestHostReadsListed(t *testing.T) {
	allowed := map[string]map[string]string{
		"ServerNode": {
			"internal/dcv/columnops.go shuffle": "the shuffle copies an operand slice from its server to the target's",
		},
		"HostShard": {
			"internal/ml/lda/eval.go Phi":                      "evaluation reads the trained counts after the run",
			"internal/ml/lda/eval.go TopWordsHost":             "evaluation reads the trained counts after the run",
			"internal/ml/embedding/deepwalk.go hostInputTable": "evaluation reads the trained embeddings after the run",
			"internal/baselines/distml.go hostRow":             "DistML's stale view catches up at the barrier; its round charged the pulls",
			"internal/bench/extexp.go hostRowOf":               "reads an async model after the simulation stopped",
		},
	}
	root := filepath.Join("..", "..")
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == ".git" || d.Name() == "testdata" || path == filepath.Join(root, "internal", "ps") {
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
		rel, _ := filepath.Rel(root, path)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			site := filepath.ToSlash(rel) + " " + fn.Name.Name
			ast.Inspect(fn, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if sites, ok := allowed[sel.Sel.Name]; ok && sites[site] == "" {
					t.Errorf("%s: Matrix.%s in %s; reach the servers through an operator, Invoke or CallShards",
						fset.Position(call.Pos()), sel.Sel.Name, fn.Name.Name)
				}
				return true
			})
		}
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
