package repro_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// optionStructs are the config-like structs whose names do not end in
// Config, Options or Policy.
var optionStructs = map[string]bool{
	"slots.RipUp":           true,
	"audit.ContractSet":     true,
	"audit.Contract":        true,
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
	"core.Config.PPM":                    "the paper's plesiochronous deviation: every asynchronous bound scales by it, examples/mesochronous runs 200 ppm and ROADMAP item 8 sweeps it",
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
	info      *types.Info
	pkg       *types.Package
	err       error
}

// moduleImporter type-checks the module's own packages from the parsed
// files (each once, so an object has one identity everywhere) and leaves
// the standard library to the source importer.
type moduleImporter struct {
	std  types.Importer
	fset *token.FileSet
	pkgs map[string]*modulePackage // by import path; external test packages under path + "_test"
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	p := m.pkgs[path]
	if p == nil {
		return m.std.Import(path)
	}
	if p.info == nil {
		p.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: m}
		p.pkg, p.err = conf.Check(strings.TrimSuffix(path, "_test"), m.fset, p.files, p.info)
	}
	return p.pkg, p.err
}

// TestEveryOptionVaries is the keep-an-option rule of DESIGN.md as a
// gate: an exported field of a config-like struct must be given a value
// by product code — a non-test file outside examples/ and outside the
// field's own package, such as a binary, an experiment or the serve
// layer — or it is a constant, not an option. A value only a test or an
// example gives does not count. It type-checks every package of the
// module, tests and examples included (bench/ is a module of its own and
// is not read), and counts keyed and positional composite literals,
// assignments and address-taking as giving a value.
func TestEveryOptionVaries(t *testing.T) {
	// Pure-Go standard library files: the source importer would otherwise
	// run cgo for net and os/user.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	t.Cleanup(func() { build.Default.CgoEnabled = cgo })

	fset := token.NewFileSet()
	m := &moduleImporter{std: importer.ForCompiler(fset, "source", nil), fset: fset, pkgs: map[string]*modulePackage{}}
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
		dir := filepath.ToSlash(filepath.Dir(path))
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path, p := range m.pkgs {
		if _, err := m.Import(path); err != nil {
			t.Fatalf("type-checking %s: %v", p.dir, err)
		}
	}
	isTest := func(f *ast.File) bool { return strings.HasSuffix(fset.File(f.Pos()).Name(), "_test.go") }

	// The fields under the rule.
	type field struct {
		name, dir string
		varies    bool
	}
	fields := map[types.Object]*field{}
	structs := 0
	for _, p := range m.pkgs {
		for _, f := range p.files {
			if isTest(f) {
				continue
			}
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
							fields[p.info.Defs[id]] = &field{name: name + "." + id.Name, dir: p.dir}
						}
					}
				}
				if len(fields) > before {
					structs++
				}
				return true
			})
		}
	}
	if len(fields) < 100 {
		t.Fatalf("only %d option fields found; test is running from the wrong directory", len(fields))
	}

	// Where each is given a value.
	for _, p := range m.pkgs {
		for _, f := range p.files {
			if isTest(f) || p.dir == "examples" || strings.HasPrefix(p.dir, "examples/") {
				continue
			}
			set := func(obj types.Object) {
				if fd := fields[obj]; fd != nil && fd.dir != p.dir {
					fd.varies = true
				}
			}
			var target func(e ast.Expr)
			target = func(e ast.Expr) {
				switch e := e.(type) {
				case *ast.ParenExpr:
					target(e.X)
				case *ast.IndexExpr:
					target(e.X)
				case *ast.SelectorExpr:
					if sel := p.info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
						set(sel.Obj())
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, _ := p.info.TypeOf(n).Underlying().(*types.Struct)
					for i, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								set(p.info.Uses[id])
							}
						} else if st != nil {
							set(st.Field(i))
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
				}
				return true
			})
		}
	}

	var constant []string
	for _, fd := range fields {
		if !fd.varies {
			constant = append(constant, fd.name)
		}
	}
	sort.Strings(constant)
	t.Logf("%d exported fields on %d config-like structs", len(fields), structs)
	if len(constant) > 0 {
		t.Errorf("%d option fields are given a value nowhere but in their own package's non-test files, so each has only ever held one value: make it a constant, or give optionsAllowed the reason it varies:\n  %s",
			len(constant), strings.Join(constant, "\n  "))
	}
}
