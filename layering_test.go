package repro_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// nonTestImports returns the module packages the non-test .go files of
// dir import.
func nonTestImports(t *testing.T, dir string) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no Go files in %s (%v); test is running from the wrong directory", dir, err)
	}
	out := map[string]bool{}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			out[p] = true
		}
	}
	return out
}

// TestAuditImportsNoFabric holds the auditor's layering: every fabric
// states its contracts (analysis.ContractSet) and internal/audit judges
// them through one door, so the auditor imports no fabric and no fabric
// imports the auditor.
func TestAuditImportsNoFabric(t *testing.T) {
	audit := nonTestImports(t, "internal/audit")
	for _, pkg := range []string{"core", "routerless", "aethereal", "backend", "reliable"} {
		if audit["repro/internal/"+pkg] {
			t.Errorf("internal/audit imports internal/%s", pkg)
		}
	}
	for _, pkg := range []string{"core", "routerless", "aethereal"} {
		if nonTestImports(t, "internal/"+pkg)["repro/internal/audit"] {
			t.Errorf("internal/%s imports internal/audit", pkg)
		}
	}
}
