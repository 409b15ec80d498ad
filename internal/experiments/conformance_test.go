package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestConformancePoint runs one sweep point end to end: zero violations,
// byte-identical timelines under 8x interference.
func TestConformancePoint(t *testing.T) {
	cfg := DefaultConformanceConfig()
	line, err := conformancePoint(cfg, 16, core.Synchronous)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, "0 violations") || !strings.Contains(line, "identical") {
		t.Errorf("verdict line = %q", line)
	}
}

// TestConformanceSweepFollowsConfig: the sweep runs exactly the configured
// table sizes and modes, table-major in the configured order.
func TestConformanceSweepFollowsConfig(t *testing.T) {
	cfg := DefaultConformanceConfig()
	cfg.TableSizes = []int{16, 8}
	cfg.Modes = []core.Mode{core.Asynchronous, core.Synchronous}
	cfg.MeasureNs = 4000
	lines, err := ConformanceSweep(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, table := range cfg.TableSizes {
		for _, mode := range cfg.Modes {
			want = append(want, fmt.Sprintf("conformance table %2d %-12s: 0 violations", table, mode))
		}
	}
	if len(lines) != len(want) {
		t.Fatalf("sweep returned %d points, want %d", len(lines), len(want))
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[i], w) {
			t.Errorf("point %d = %q, want prefix %q", i, lines[i], w)
		}
	}
}

// TestConformanceSweepDeterministic: the full sweep passes and renders
// byte-identically at every worker count.
func TestConformanceSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full 9-point sweep")
	}
	cfg := DefaultConformanceConfig()
	serial, err := ConformanceSweep(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(cfg.TableSizes)*len(cfg.Modes) {
		t.Fatalf("sweep returned %d points", len(serial))
	}
	par, err := ConformanceSweep(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Errorf("point %d diverges across worker counts:\n%q\n%q", i, serial[i], par[i])
		}
	}
}
