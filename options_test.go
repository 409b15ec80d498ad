package repro_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// optionStructs are the config-like structs whose names do not end in
// Config, Options or Policy.
var optionStructs = map[string]bool{
	"slots.RipUp":           true,
	"analysis.ContractSet":  true,
	"analysis.Contract":     true,
	"traffic.Model":         true,
	"experiments.ScaleMesh": true,
	"serve.JobSpec":         true,
	"backend.Workload":      true,
}

// optionsAllowed lists what TestEveryOptionVaries does not hold to its
// rule, by struct or by field, each with the reason.
var optionsAllowed = map[string]string{
	"serve.JobSpec":                      "decoded from the JSON a client posts",
	"scenario.Config.Seed":               "varies through Default's seed argument, which every caller passes",
	"experiments.ScaleMesh.Simulate":     "true on one of DefaultScaleConfig's meshes and false on two",
	"core.Config.FIFOForwardCycles":      "the paper admits a 1-2 cycle FIFO, and BenchmarkAblationFIFODelay runs both",
	"core.Config.PPM":                    "the paper's plesiochronous deviation: every asynchronous bound scales by it, examples/mesochronous runs 1000 ppm and ROADMAP item 8 sweeps it",
	"experiments.CompareConfig.Backends": "the compare artifact records it under backends, so dropping it moves every compare artifact",
	"serve.RetryPolicy.Base":             "the serve retry tests use a 1 ms base, where the default waits 50 ms per retry",
	"serve.RetryPolicy.Max":              "the serve retry tests use a 1-4 ms ceiling, where the default waits up to 2000 ms per retry",
}

// A modulePackage is the files of one directory that share a package
// clause: a package together with its in-package tests, or its external
// test package.
type modulePackage struct {
	dir, name string
	files     []*ast.File
}

// A buildKey names one build of a package, as the go tool makes it: under
// is the package whose tests the build serves, "" for the package as
// imported, without tests.
type buildKey struct{ path, under string }

// A packageBuild is one type-check of a package's files.
type packageBuild struct {
	files    []*ast.File
	info     *types.Info
	pkg      *types.Package
	err      error
	checking bool // being type-checked: importing it now is a cycle
}

// moduleImporter type-checks the module's own packages from the parsed
// files, each build once (so an object has one identity within it), and
// leaves the standard library to the source importer.
type moduleImporter struct {
	std    types.Importer
	fset   *token.FileSet
	pkgs   map[string]*modulePackage // by import path; external test packages under path + "_test"
	builds map[buildKey]*packageBuild
	deps   map[buildKey]bool // dependsOn's answers
	stack  []string          // the packages being type-checked, outermost first
}

func newModuleImporter(fset *token.FileSet) *moduleImporter {
	return &moduleImporter{std: importer.ForCompiler(fset, "source", nil), fset: fset,
		pkgs: map[string]*modulePackage{}, builds: map[buildKey]*packageBuild{}, deps: map[buildKey]bool{}}
}

// add registers f, parsed from directory dir (slash-separated, relative
// to the module root), under its package.
func (m *moduleImporter) add(dir string, f *ast.File) {
	key := "repro/" + dir
	if dir == "." {
		key = "repro"
	}
	if strings.HasSuffix(f.Name.Name, "_test") {
		key += "_test"
	}
	p := m.pkgs[key]
	if p == nil {
		p = &modulePackage{dir: dir, name: strings.TrimSuffix(f.Name.Name, "_test")}
		m.pkgs[key] = p
	}
	p.files = append(p.files, f)
}

func (m *moduleImporter) isTest(f *ast.File) bool {
	return strings.HasSuffix(m.fset.File(f.Pos()).Name(), "_test.go")
}

// testsOf returns path when its package has in-package tests, and "" when
// its tests build it as it is imported.
func (m *moduleImporter) testsOf(path string) string {
	if p := m.pkgs[path]; p != nil && slices.ContainsFunc(p.files, m.isTest) {
		return path
	}
	return ""
}

// dependsOn reports whether path, as imported, is under or imports it,
// directly or not. An import cycle among packages as imported reads as
// no dependence here; type-checking them reports it.
func (m *moduleImporter) dependsOn(path, under string) bool {
	k := buildKey{path, under}
	if d, ok := m.deps[k]; ok || under == "" || path == under {
		return d || path == under
	}
	m.deps[k] = false
	for _, f := range m.pkgs[path].files {
		if m.isTest(f) {
			continue
		}
		for _, spec := range f.Imports {
			if dep, _ := strconv.Unquote(spec.Path.Value); m.pkgs[dep] != nil && m.dependsOn(dep, under) {
				m.deps[k] = true
				return true
			}
		}
	}
	return false
}

// importer resolves the imports of a build serving under's tests as the
// go tool does: a package that is under or imports it is built again for
// those tests, with under's in-package tests in it; any other is the
// package as imported, without tests.
func (m *moduleImporter) importer(under string) types.Importer {
	return importerFunc(func(path string) (*types.Package, error) {
		if m.pkgs[path] == nil {
			return m.std.Import(path)
		}
		if !m.dependsOn(path, under) {
			return m.build(buildKey{path, ""})
		}
		return m.build(buildKey{path, under})
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// build type-checks the package k names: an external test package with
// all its files, under's own package with its in-package tests, and any
// other without them.
func (m *moduleImporter) build(k buildKey) (*types.Package, error) {
	b := m.builds[k]
	if b != nil && b.checking {
		// A package imports one that is still being type-checked: a
		// cycle the go tool would refuse.
		cycle := append(m.stack[slices.Index(m.stack, k.path):], k.path)
		return nil, fmt.Errorf("import cycle: %s", strings.Join(cycle, " -> "))
	}
	if b == nil {
		b = &packageBuild{checking: true}
		m.builds[k] = b
		for _, f := range m.pkgs[k.path].files {
			if !m.isTest(f) || k.path == k.under || strings.HasSuffix(k.path, "_test") {
				b.files = append(b.files, f)
			}
		}
		m.stack = append(m.stack, k.path)
		defer func() {
			b.checking = false
			m.stack = m.stack[:len(m.stack)-1]
		}()
		b.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: m.importer(k.under)}
		b.pkg, b.err = conf.Check(strings.TrimSuffix(k.path, "_test"), m.fset, b.files, b.info)
	}
	return b.pkg, b.err
}

// An optionCensus is what takeCensus found: how many fields and structs
// are under the rule, and the names of the fields that never vary.
type optionCensus struct {
	fields, structs int
	constant        []string
}

// takeCensus type-checks every package m holds and applies the
// keep-an-option rule of DESIGN.md to the exported fields of its
// config-like structs. A field varies only if product code — a non-test
// file outside examples/ and outside the field's own package — gives it
// two distinct constant values, or a value that is not a constant. A
// keyed composite literal that leaves a field out gives it its zero
// value; a positional one gives every field; an assignment gives its
// right-hand side; an assignment that is not one value per target, an
// operator assignment, an increment and taking a field's address give
// a value that is not a constant. nil and the zero constants are one
// value, the zero value.
func takeCensus(m *moduleImporter) (optionCensus, error) {
	// Every package as imported, with its in-package tests, and its
	// external test package: the builds go vet and go test make.
	for path := range m.pkgs {
		keys := []buildKey{{path, ""}, {path, m.testsOf(path)}}
		if under, ok := strings.CutSuffix(path, "_test"); ok {
			keys = []buildKey{{path, m.testsOf(under)}}
		}
		for _, k := range keys {
			if _, err := m.build(k); err != nil {
				return optionCensus{}, fmt.Errorf("type-checking %s: %v", path, err)
			}
		}
	}
	// The census reads product code, each package as imported: its one
	// build, without tests, gives every field a single identity.
	products := map[*modulePackage]*packageBuild{}
	for path, p := range m.pkgs {
		if b := m.builds[buildKey{path, ""}]; b != nil {
			products[p] = b
		}
	}

	// The fields under the rule.
	type field struct {
		name, dir string
		values    map[string]bool // the distinct constant values product code gives it
		dynamic   bool            // product code gives it a value that is not a constant
	}
	fields := map[types.Object]*field{}
	var c optionCensus
	for p, b := range products {
		for _, f := range b.files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				name := p.name + "." + ts.Name.Name
				suffixed := strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Policy")
				if _, allowed := optionsAllowed[name]; allowed || !suffixed && !optionStructs[name] {
					return true
				}
				before := len(fields)
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if _, allowed := optionsAllowed[name+"."+id.Name]; id.IsExported() && !allowed {
							fields[b.info.Defs[id]] = &field{name: name + "." + id.Name, dir: p.dir, values: map[string]bool{}}
						}
					}
				}
				if len(fields) > before {
					c.structs++
				}
				return true
			})
		}
	}
	c.fields = len(fields)

	// The values product code gives each.
	for p, b := range products {
		if p.dir == "examples" || strings.HasPrefix(p.dir, "examples/") {
			continue
		}
		for _, f := range b.files {
			// give records value v for obj: a constant's exact text,
			// "zero", or "" for a value that is not a constant.
			give := func(obj types.Object, v string) {
				if fd := fields[obj]; fd != nil && fd.dir != p.dir {
					if v == "" {
						fd.dynamic = true
					} else {
						fd.values[v] = true
					}
				}
			}
			valueOf := func(e ast.Expr) string {
				tv := b.info.Types[e]
				switch {
				case tv.IsNil() || tv.Value != nil && isZero(tv.Value):
					return "zero"
				case tv.Value != nil:
					return tv.Value.ExactString()
				}
				return ""
			}
			var target func(lhs ast.Expr, v string)
			target = func(lhs ast.Expr, v string) {
				switch lhs := lhs.(type) {
				case *ast.ParenExpr:
					target(lhs.X, v)
				case *ast.IndexExpr:
					target(lhs.X, "") // a changed element: the field holds a value that is not a constant
				case *ast.SelectorExpr:
					if sel := b.info.Selections[lhs]; sel != nil && sel.Kind() == types.FieldVal {
						give(sel.Obj(), v)
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, _ := b.info.TypeOf(n).Underlying().(*types.Struct)
					if st == nil {
						return true
					}
					given := make([]bool, st.NumFields())
					for i, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								obj := b.info.Uses[id]
								for j := range given {
									given[j] = given[j] || st.Field(j) == obj
								}
								give(obj, valueOf(kv.Value))
							}
						} else {
							given[i] = true
							give(st.Field(i), valueOf(el))
						}
					}
					for j, ok := range given {
						if !ok {
							give(st.Field(j), "zero")
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						v := ""
						if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
							v = valueOf(n.Rhs[i])
						}
						target(lhs, v)
					}
				case *ast.IncDecStmt:
					target(n.X, "")
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						target(n.X, "")
					}
				}
				return true
			})
		}
	}

	for _, fd := range fields {
		if !fd.dynamic && len(fd.values) < 2 {
			c.constant = append(c.constant, fd.name)
		}
	}
	sort.Strings(c.constant)
	return c, nil
}

// isZero reports whether v is its kind's zero value.
func isZero(v constant.Value) bool {
	switch v.Kind() {
	case constant.Bool:
		return !constant.BoolVal(v)
	case constant.String:
		return constant.StringVal(v) == ""
	case constant.Int, constant.Float:
		return constant.Sign(v) == 0
	}
	return false
}

// TestEveryOptionVaries is the keep-an-option rule of DESIGN.md as a
// gate over the module (see takeCensus): a field of a config-like struct
// to which product code gives one value only is a constant, not an
// option. It type-checks every package of the module, tests and examples
// included (bench/ is a module of its own and is not read).
func TestEveryOptionVaries(t *testing.T) {
	// Pure-Go standard library files: the source importer would otherwise
	// run cgo for net and os/user.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	t.Cleanup(func() { build.Default.CgoEnabled = cgo })

	fset := token.NewFileSet()
	m := newModuleImporter(fset)
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			_, serr := os.Stat(filepath.Join(path, "go.mod"))
			if serr == nil || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir // a module of its own (bench/), or not source
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if perr != nil {
			return perr
		}
		m.add(filepath.ToSlash(filepath.Dir(path)), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := takeCensus(m)
	if err != nil {
		t.Fatal(err)
	}
	if c.fields < 90 {
		t.Fatalf("only %d option fields found; test is running from the wrong directory", c.fields)
	}
	t.Logf("%d exported fields on %d config-like structs", c.fields, c.structs)
	if len(c.constant) > 0 {
		t.Errorf("%d option fields are given at most one value by product code outside their own package, so each has only ever held one value: make it a constant, or give optionsAllowed the reason it varies:\n  %s",
			len(c.constant), strings.Join(c.constant, "\n  "))
	}
}

// censusOf type-checks a module held in memory, file name to source.
func censusOf(t *testing.T, src map[string]string) (optionCensus, error) {
	t.Helper()
	fset := token.NewFileSet()
	m := newModuleImporter(fset)
	for name, text := range src {
		f, err := parser.ParseFile(fset, name, text, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		m.add(filepath.Dir(name), f)
	}
	return takeCensus(m)
}

// TestCensusNamesImportCycle runs the census on a two-package module
// whose in-package test closes an import cycle: a's test imports b,
// which imports a. The census must fail naming the cycle, not loop back
// into the package it is still checking.
func TestCensusNamesImportCycle(t *testing.T) {
	_, err := censusOf(t, map[string]string{
		"a/a.go":      "package a\n\nconst X = 1\n",
		"a/a_test.go": "package a\n\nimport \"repro/b\"\n\nvar _ = b.Y\n",
		"b/b.go":      "package b\n\nimport \"repro/a\"\n\nconst Y = a.X\n",
	})
	if err == nil || !strings.Contains(err.Error(), "import cycle: ") ||
		!strings.Contains(err.Error(), "repro/a -> repro/b") && !strings.Contains(err.Error(), "repro/b -> repro/a") {
		t.Errorf("census of a cyclic module: error %v, want one naming the cycle between repro/a and repro/b", err)
	}
}

// TestCensusSeesNoCycleThroughTests runs the census on a two-package
// module whose in-package tests import each other's package: a's test
// imports b, and b's test imports a. The go tool builds each package
// without its tests when another imports it, so there is no cycle, and
// the census must not see one.
func TestCensusSeesNoCycleThroughTests(t *testing.T) {
	_, err := censusOf(t, map[string]string{
		"a/a.go":      "package a\n\nconst X = 1\n",
		"a/a_test.go": "package a\n\nimport \"repro/b\"\n\nvar _ = b.Y\n",
		"b/b.go":      "package b\n\nconst Y = 2\n",
		"b/b_test.go": "package b\n\nimport \"repro/a\"\n\nvar _ = a.X\n",
	})
	if err != nil {
		t.Errorf("census of a module whose in-package tests import each other's package: %v", err)
	}
}

// TestCensusNeedsTwoValues runs the census on a two-package module held
// in memory: package knob declares an option struct, package use is the
// product code that sets it, and the census must flag exactly the fields
// that use gives fewer than two values.
func TestCensusNeedsTwoValues(t *testing.T) {
	src := map[string]string{
		"knob/knob.go": `package knob

type Mode int

const Fast Mode = 2

type DialConfig struct {
	OneConstant    int
	TwoConstants   Mode
	OmittedOnce    bool
	NotConstant    string
	PointerOrNil   *int
	NilOnly        *int
	ZeroOnly       int
	OwnPackageOnly int
	TestOnly       int
	unexported     int
}

func Default() DialConfig { return DialConfig{OwnPackageOnly: 8, unexported: 1} }
`,
		"knob/knob_test.go": `package knob

var _ = DialConfig{TestOnly: 2}
`,
		"use/use.go": `package use

import "repro/knob"

var name = "dyn"

func A() knob.DialConfig {
	return knob.DialConfig{OneConstant: 3, TwoConstants: knob.Fast, OmittedOnce: true,
		NotConstant: name, PointerOrNil: nil, NilOnly: nil, ZeroOnly: 0, OwnPackageOnly: 7, TestOnly: 1}
}

func B() knob.DialConfig {
	c := knob.DialConfig{OneConstant: 3, TwoConstants: 1, NotConstant: name, OwnPackageOnly: 7, TestOnly: 1}
	c.PointerOrNil = new(int)
	return c
}
`,
	}
	c, err := censusOf(t, src)
	if err != nil {
		t.Fatal(err)
	}
	// Not flagged: TwoConstants (2 and 1), OmittedOnce (true, and zero
	// where B leaves it out), NotConstant (the same variable at both
	// sites), PointerOrNil (nil, and a call).
	want := []string{
		"knob.DialConfig.NilOnly",        // nil given in A and left out in B: one value
		"knob.DialConfig.OneConstant",    // 3 at both sites
		"knob.DialConfig.OwnPackageOnly", // 7; the 8 its own package gives does not count
		"knob.DialConfig.TestOnly",       // 1; the 2 a test gives does not count
		"knob.DialConfig.ZeroOnly",       // 0 given in A and left out in B: one value
	}
	if c.fields != 9 || c.structs != 1 || !reflect.DeepEqual(c.constant, want) {
		t.Errorf("census of %d fields on %d structs flags\n  %s\nwant 9 fields on 1 struct flagging\n  %s",
			c.fields, c.structs, strings.Join(c.constant, "\n  "), strings.Join(want, "\n  "))
	}
}
