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
	line, err := conformancePoint(Sec7Seed, 16, core.Synchronous)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, "0 violations") || !strings.Contains(line, "identical") {
		t.Errorf("verdict line = %q", line)
	}
}

// TestConformanceSweepDeterministic: the full sweep passes, runs every
// table size under every mode table-major, and renders byte-identically at
// every worker count.
func TestConformanceSweepDeterministic(t *testing.T) {
	serial, err := conformanceSweep(Sec7Seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(conformanceTableSizes)*len(conformanceModes) {
		t.Fatalf("sweep returned %d points", len(serial))
	}
	i := 0
	for _, table := range conformanceTableSizes {
		for _, mode := range conformanceModes {
			if w := fmt.Sprintf("conformance table %2d %-12s: 0 violations", table, mode); !strings.HasPrefix(serial[i], w) {
				t.Errorf("point %d = %q, want prefix %q", i, serial[i], w)
			}
			i++
		}
	}
	par, err := conformanceSweep(Sec7Seed, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Errorf("point %d diverges across worker counts:\n%q\n%q", i, serial[i], par[i])
		}
	}
}
