package ps2

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllow is the only way an exported name under internal/ may live
// without a non-test reference. Two reasons are accepted: "oracle" (tests read
// it to check the system from outside) and "paper" (the paper names the
// operation, so the surface keeps it though no program here calls it yet).
// TestInternalSurfaceIsReached fails on an entry that has gained a non-test
// caller or names nothing, so the list can only shrink.
var surfaceAllow = map[string]string{
	"ps.Master.Alive":              "oracle",
	"ps.Master.Server":             "oracle",
	"ps.Master.NumServers":         "oracle",
	"ps.Master.Stats":              "oracle",
	"ps.Master.DedupSettled":       "oracle",
	"ps.Server.DedupSize":          "oracle",
	"ps.HotReplicaSet.Stats":       "oracle",
	"ps.HotReplicaSet.Clock":       "oracle",
	"ps.Matrix.Clock":              "oracle",
	"ps.ModelReader.Matrix":        "oracle",
	"ps.ModelReader.Replicas":      "oracle",
	"ps.ModelReader.Snapshot":      "oracle",
	"ps.ModelSnapshot.Valid":       "oracle",
	"obs.Tracer.Len":               "oracle",
	"obs.Tracer.Lanes":             "oracle",
	"obs.Tracer.Enabled":           "oracle",
	"obs.Tracer.WriteChrome":       "oracle",
	"obs.Span.ID":                  "oracle",
	"lr.AUC":                       "oracle",
	"lr.LoadWeights":               "oracle",
	"lr.EvalOnCluster":             "oracle",
	"lr.AsyncModel.Wait":           "oracle",
	"lr.AsyncModel.FinalWeights":   "oracle",
	"fm.EvalLoss":                  "oracle",
	"gbdt.Model.Evaluate":          "oracle",
	"gbdt.Model.FeatureImportance": "oracle",
	"lda.Model.Theta":              "oracle",
	"lda.SamplerStandard":          "oracle",
	"rdd.Context.KillExecutor":     "oracle",
	"rdd.Context.ExecutorAlive":    "oracle",
	"simnet.Node.Restore":          "oracle",
	"lr.TrainLBFGS":                "paper",
	"lr.DefaultLBFGSConfig":        "paper",
}

// fieldAllow is the only way an exported struct field under internal/ may be
// read by non-test code while only tests set it. One reason is accepted:
// "input" (tests set it to drive the system from outside, as a fault
// schedule). TestInternalSurfaceIsReached fails on an entry whose field has
// gained a non-test setter or names nothing, so the list can only shrink.
var fieldAllow = map[string]string{
	"core.FaultPlan.LinkFaults": "input",
}

// TestInternalSurfaceIsReached type-checks every package of the repository
// (tests, cmd/, examples/ and the benchmarks module included) and fails on an
// exported name under internal/ that only tests, or nothing, refer to, and on
// an exported field that non-test code reads but never sets: an option no
// program sets is a branch no program takes.
func TestInternalSurfaceIsReached(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := loadSurfaceTree(fset, ".")
	if err != nil {
		t.Fatal(err)
	}
	inScope := func(path string) bool { return strings.HasPrefix(path, "repro/internal/") }
	problems, err := checkSurface(fset, pkgs, inScope, surfaceAllow, fieldAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// loadSurfaceTree parses the root module and the benchmarks module beside it
// into import path → every .go file of that directory, test files included.
func loadSurfaceTree(fset *token.FileSet, root string) (map[string][]*ast.File, error) {
	pkgs := map[string][]*ast.File{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != root && (name[0] == '.' || name == "testdata" || name == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		pkgPath := path.Join("repro", filepath.ToSlash(rel))
		pkgs[pkgPath] = append(pkgs[pkgPath], f)
		return nil
	})
	return pkgs, err
}

// surfaceChecker type-checks the given packages on demand and hands every
// other import to the standard library's source importer.
type surfaceChecker struct {
	fset *token.FileSet
	src  map[string][]*ast.File
	done map[string]*types.Package // the importable (test-free) variant of each src package
	std  types.Importer
	uses map[string][2]int // name key → references from {non-test, test} files
	// fields counts each struct field's references, keyed by the field's
	// declaration, from {non-test, test} files.
	fields map[token.Pos][2]fieldUse
	// built holds the declarations of the named struct types a non-test
	// file constructs: a composite literal, new(T) or var x T.
	built map[token.Pos]bool
}

// fieldUse counts the references to one field that set it and those that
// only read it.
type fieldUse struct{ sets, reads int }

func (c *surfaceChecker) countField(v *types.Var, at token.Pos, set bool) {
	if !v.Exported() || v.Embedded() {
		return
	}
	n := c.fields[v.Pos()]
	u := &n[0]
	if c.isTest(at) {
		u = &n[1]
	}
	if set {
		u.sets++
	} else {
		u.reads++
	}
	c.fields[v.Pos()] = n
}

func (c *surfaceChecker) Import(path string) (*types.Package, error) {
	if p := c.done[path]; p != nil {
		return p, nil
	}
	files, ok := c.src[path]
	if !ok {
		return c.std.Import(path)
	}
	base, _, _ := c.variants(files)
	p, err := c.check(path, c, base)
	c.done[path] = p
	return p, err
}

// variants splits one directory's files the way go test builds them: the
// importable package, that package plus its in-package tests (nil when it has
// none), and the external _test package.
func (c *surfaceChecker) variants(files []*ast.File) (base, inTest, xtest []*ast.File) {
	for _, f := range files {
		switch {
		case strings.HasSuffix(f.Name.Name, "_test"):
			xtest = append(xtest, f)
		case c.isTest(f.Pos()):
			inTest = append(inTest, f)
		default:
			base = append(base, f)
		}
	}
	if inTest != nil {
		inTest = append(inTest, base...)
	}
	return base, inTest, xtest
}

func (c *surfaceChecker) isTest(pos token.Pos) bool {
	return strings.HasSuffix(c.fset.File(pos).Name(), "_test.go")
}

func (c *surfaceChecker) check(path string, imp types.Importer, files []*ast.File) (*types.Package, error) {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	p, err := (&types.Config{Importer: imp}).Check(path, c.fset, files, info)
	sets := c.fieldSets(info, files)
	for id, obj := range info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			c.countField(v, id.Pos(), sets[id])
			continue
		}
		if k := surfaceKey(obj); k != "" {
			n := c.uses[k]
			if c.isTest(id.Pos()) {
				n[1]++
			} else {
				n[0]++
			}
			c.uses[k] = n
		}
	}
	return p, err
}

// fieldSets returns the identifiers in files that set a struct field: a
// composite literal's key, the selected field of an assignment's or an
// inc/dec statement's target, and the operand of &. An unkeyed struct literal
// sets every field it lists; those are counted here directly, as are the
// struct types non-test files construct.
func (c *surfaceChecker) fieldSets(info *types.Info, files []*ast.File) map[*ast.Ident]bool {
	sets := map[*ast.Ident]bool{}
	// build records that the named struct type e denotes or has, through a
	// pointer, is constructed at at, and returns the struct.
	build := func(at token.Pos, e ast.Expr) *types.Struct {
		t := info.Types[e].Type
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return nil
		}
		if !c.isTest(at) {
			c.built[named.Obj().Pos()] = true
		}
		st, _ := named.Underlying().(*types.Struct)
		return st
	}
	// target marks every field on e's selector chain: writing x.A.B[i]
	// writes into B and A as well.
	target := func(e ast.Expr) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				sets[x.Sel] = true
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				return
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				st := build(n.Pos(), n)
				for i, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							sets[id] = true
						}
					} else if st != nil {
						c.countField(st.Field(i), n.Pos(), true)
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					target(lhs)
				}
			case *ast.IncDecStmt:
				target(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					target(n.X)
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "new" && len(n.Args) == 1 {
					if _, builtin := info.Uses[id].(*types.Builtin); builtin {
						build(n.Pos(), n.Args[0])
					}
				}
			case *ast.ValueSpec:
				if n.Type != nil {
					build(n.Pos(), n.Type)
				}
			}
			return true
		})
	}
	return sets
}

// xtestImporter resolves the package under test to the variant that carries
// its in-package test files, as go test does.
type xtestImporter struct {
	*surfaceChecker
	under *types.Package
}

func (x xtestImporter) Import(path string) (*types.Package, error) {
	if path == x.under.Path() {
		return x.under, nil
	}
	return x.surfaceChecker.Import(path)
}

// surfaceKey names an exported package-level object or method as
// "importpath.Name" or "importpath.Type.Method"; anything else is "".
func surfaceKey(obj types.Object) string {
	if obj.Pkg() == nil || !obj.Exported() {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if ptr, ok := rt.(*types.Pointer); ok {
				rt = ptr.Elem()
			}
			named, ok := rt.(*types.Named)
			if !ok { // interface method
				return ""
			}
			return obj.Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() { // struct field or local
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// checkSurface reports every exported func, method, type, const and var of
// the inScope packages with no reference from a non-test file, unless allow
// lists it, and every allow entry that has such a reference or names nothing.
// Methods that satisfy an interface declared in pkgs, error, fmt.Stringer or
// sort.Interface are not looked at: those are reached through the interface.
// It also reports every exported, non-embedded field of the inScope packages'
// struct types that a non-test file reads but none sets, unless fieldAllow
// lists it, and every fieldAllow entry that names no such field. A struct
// type that no non-test file constructs is the tests' input, not a program's
// option, and its fields are not looked at. Allow keys drop the import
// path's directories ("ps.Master.Alive" for repro/internal/ps).
func checkSurface(fset *token.FileSet, pkgs map[string][]*ast.File, inScope func(string) bool, allow, fieldAllow map[string]string) ([]string, error) {
	build.Default.CgoEnabled = false // the source importer would otherwise run cgo for net and os/user
	c := &surfaceChecker{
		fset:   fset,
		src:    pkgs,
		done:   map[string]*types.Package{},
		std:    importer.ForCompiler(fset, "source", nil),
		uses:   map[string][2]int{},
		fields: map[token.Pos][2]fieldUse{},
		built:  map[token.Pos]bool{},
	}
	for pkgPath, files := range pkgs {
		under, err := c.Import(pkgPath)
		if err != nil {
			return nil, err
		}
		_, inTest, xtest := c.variants(files)
		if inTest != nil {
			if under, err = c.check(pkgPath, c, inTest); err != nil {
				return nil, err
			}
		}
		if xtest != nil {
			if _, err := c.check(pkgPath+"_test", xtestImporter{c, under}, xtest); err != nil {
				return nil, err
			}
		}
	}

	ifaces := surfaceInterfaces(c)
	var problems []string
	declared := map[string]bool{}
	judge := func(obj types.Object) {
		key := surfaceKey(obj)
		if key == "" {
			return
		}
		short := path.Base(obj.Pkg().Path()) + key[len(obj.Pkg().Path()):]
		declared[short] = true
		n := c.uses[key]
		reason, allowed := allow[short]
		switch {
		case n[0] == 0 && !allowed:
			problems = append(problems, fmt.Sprintf("%s: exported %s has no non-test reference (%d in tests): delete it, call it, or allow-list it with a reason",
				fset.Position(obj.Pos()), short, n[1]))
		case n[0] > 0 && allowed:
			problems = append(problems, fmt.Sprintf("%s: %s is allow-listed (%s) but now has a non-test reference: stale entry, remove it from the allow-list",
				fset.Position(obj.Pos()), short, reason))
		}
	}
	flagged := map[string]bool{} // field key → read by non-test code, set only in tests or nowhere
	judgeField := func(tn *types.TypeName, f *types.Var) {
		if !f.Exported() || f.Embedded() {
			return
		}
		short := path.Base(tn.Pkg().Path()) + "." + tn.Name() + "." + f.Name()
		n := c.fields[f.Pos()]
		flagged[short] = n[0].reads > 0 && n[0].sets == 0
		if _, allowed := fieldAllow[short]; flagged[short] && !allowed {
			problems = append(problems, fmt.Sprintf("%s: field %s is read by non-test code but never set there (%d sets in tests): delete it with its branches, set it, or allow-list it with a reason",
				fset.Position(f.Pos()), short, n[1].sets))
		}
	}
	for pkgPath := range pkgs {
		if !inScope(pkgPath) {
			continue
		}
		scope := c.done[pkgPath].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			judge(obj)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if st, ok := named.Underlying().(*types.Struct); ok && c.built[tn.Pos()] {
				for i := 0; i < st.NumFields(); i++ {
					judgeField(tn, st.Field(i))
				}
			}
			for i := 0; tn.Exported() && i < named.NumMethods(); i++ {
				if m := named.Method(i); !satisfiesInterface(named, m, ifaces) {
					judge(m)
				}
			}
		}
	}
	for short, reason := range allow {
		if !declared[short] {
			problems = append(problems, fmt.Sprintf("allow-list: %s (%s) names nothing the guard checks: stale entry, remove it from the allow-list", short, reason))
		}
	}
	for short, reason := range fieldAllow {
		if !flagged[short] {
			problems = append(problems, fmt.Sprintf("field allow-list: %s (%s) names no field that non-test code reads and only tests set: stale entry, remove it from the allow-list", short, reason))
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// stdInterfaces restates fmt.Stringer and sort.Interface, whose methods the
// standard library calls by reflection or through its own interface; declared
// here so a check needs no import to know them.
const stdInterfaces = `package std
type Stringer interface{ String() string }
type Sorter interface { Len() int; Less(i, j int) bool; Swap(i, j int) }`

// surfaceInterfaces collects every interface type declared at package level in
// the checked packages, plus error, fmt.Stringer and sort.Interface.
func surfaceInterfaces(c *surfaceChecker) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	add := func(p *types.Package) {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					out = append(out, it)
				}
			}
		}
	}
	for _, p := range c.done {
		add(p)
	}
	f, err := parser.ParseFile(c.fset, "std.go", stdInterfaces, 0)
	if err != nil {
		panic(err)
	}
	std, err := new(types.Config).Check("std", c.fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	add(std)
	return out
}

// satisfiesInterface reports whether m is one of the methods by which its
// receiver type (or a pointer to it) implements one of ifaces.
func satisfiesInterface(named *types.Named, m *types.Func, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		if it.NumMethods() == 0 {
			continue
		}
		if obj, _, _ := types.LookupFieldOrMethod(it, false, m.Pkg(), m.Name()); obj == nil {
			continue
		}
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

// TestSurfaceGuardVerdicts pins the guard itself on three tiny in-memory
// packages: lib (in scope), app (a program calling it) and lib's own tests.
func TestSurfaceGuardVerdicts(t *testing.T) {
	sources := map[string]map[string]string{
		"m/internal/lib": {
			"lib.go": `package lib

func Called() {}

func OnlyTested() {}

type Impl struct{}

func (Impl) Do() {}

func (Impl) Idle() {}

type Opts struct {
	Set     int
	Unset   int
	TestSet int
	Addr    int
}

type Input struct{ V int }

func Use(in []Input) int { return in[0].V }
`,
			"lib_test.go": "package lib\n\nfunc helper() { OnlyTested(); _ = Opts{TestSet: 1}; Use([]Input{{V: 1}}) }\n",
		},
		"m/internal/iface": {
			"iface.go": "package iface\n\ntype Doer interface{ Do() }\n",
		},
		"m/cmd/app": {
			"main.go": `package main

import (
	"m/internal/iface"
	"m/internal/lib"
)

func main() {
	lib.Called()
	var d iface.Doer = lib.Impl{}
	d.Do()
	o := lib.Opts{Set: 1}
	scan(&o.Addr)
	println(o.Set, o.Unset, o.TestSet, o.Addr, lib.Use(nil))
}

func scan(p *int) { *p = 2 }
`,
		},
	}
	const (
		untested = "internal/lib/lib.go:5:6: exported lib.OnlyTested has no non-test reference (1 in tests): delete it, call it, or allow-list it with a reason"
		idle     = "internal/lib/lib.go:11:13: exported lib.Impl.Idle has no non-test reference (0 in tests): delete it, call it, or allow-list it with a reason"
		unset    = "internal/lib/lib.go:15:2: field lib.Opts.Unset is read by non-test code but never set there (0 sets in tests): delete it with its branches, set it, or allow-list it with a reason"
		testSet  = "internal/lib/lib.go:16:2: field lib.Opts.TestSet is read by non-test code but never set there (1 sets in tests): delete it with its branches, set it, or allow-list it with a reason"
	)
	namesOK := map[string]string{"lib.OnlyTested": "oracle", "lib.Impl.Idle": "paper"}
	fieldsOK := map[string]string{"lib.Opts.Unset": "input", "lib.Opts.TestSet": "input"}
	with := func(m map[string]string, k, v string) map[string]string {
		out := map[string]string{k: v}
		for k, v := range m {
			out[k] = v
		}
		return out
	}
	for _, tc := range []struct {
		name              string
		allow, fieldAllow map[string]string
		want              []string
	}{
		{"called passes, test-only and unreached fail, interface method is out of scope",
			nil, fieldsOK, []string{idle, untested}}, // sorted as strings
		{"allow-listed names pass",
			namesOK, fieldsOK, nil},
		{"an allow-listed name with a non-test caller is stale",
			with(namesOK, "lib.Called", "oracle"), fieldsOK,
			[]string{"internal/lib/lib.go:3:6: lib.Called is allow-listed (oracle) but now has a non-test reference: stale entry, remove it from the allow-list"}},
		{"an allow-listed name that is not declared is stale",
			with(namesOK, "lib.Gone", "oracle"), fieldsOK,
			[]string{"allow-list: lib.Gone (oracle) names nothing the guard checks: stale entry, remove it from the allow-list"}},
		{"a set field passes, &F sets F, a field read but set nowhere or only in tests fails, a struct only tests build is out of scope",
			namesOK, nil, []string{unset, testSet}},
		{"a field allow-list entry for a set field is stale",
			namesOK, with(fieldsOK, "lib.Opts.Addr", "input"),
			[]string{"field allow-list: lib.Opts.Addr (input) names no field that non-test code reads and only tests set: stale entry, remove it from the allow-list"}},
		{"a field allow-list entry that names nothing is stale",
			namesOK, with(fieldsOK, "lib.Opts.Gone", "input"),
			[]string{"field allow-list: lib.Opts.Gone (input) names no field that non-test code reads and only tests set: stale entry, remove it from the allow-list"}},
	} {
		fset := token.NewFileSet()
		pkgs := map[string][]*ast.File{}
		for path, files := range sources {
			for name, src := range files {
				f, err := parser.ParseFile(fset, strings.TrimPrefix(path, "m/")+"/"+name, src, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				pkgs[path] = append(pkgs[path], f)
			}
		}
		inScope := func(path string) bool { return strings.HasPrefix(path, "m/internal/") }
		got, err := checkSurface(fset, pkgs, inScope, tc.allow, tc.fieldAllow)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("%s:\ngot  %q\nwant %q", tc.name, got, tc.want)
		}
	}
}
