package backend

import (
	"strings"
	"testing"

	"repro/internal/phit"
	"repro/internal/topology"
)

// TestWorkloadBuild: the builder sizes the header for the mesh diameter,
// reports a diameter no layout encodes as unrunnable while still building
// the workload for uncapped planning, and fills the Params fields the
// workload fixes, a generated scenario keeping the generator's NIs and
// frequency when the workload leaves them zero.
func TestWorkloadBuild(t *testing.T) {
	for _, tc := range []struct {
		size      int
		layout    phit.HeaderLayout
		wordBytes int
		runnable  bool
	}{
		{3, phit.DefaultLayout, 4, true},
		{5, phit.WideLayout, 8, true},
		{8, phit.WideLayout, 8, true},
		{10, phit.WideLayout, 8, false},
	} {
		w := Workload{Scenario: "uniform", Conns: 12, Seed: 7, Cols: tc.size, Rows: tc.size}
		m, uc, p, runnable, err := w.Build(32)
		if err != nil {
			t.Fatalf("%dx%d: %v", tc.size, tc.size, err)
		}
		if p.Layout != tc.layout || p.WordBytes != tc.wordBytes || runnable != tc.runnable {
			t.Errorf("%dx%d: layout %+v, %d-byte words, runnable %v; want %+v, %d, %v",
				tc.size, tc.size, p.Layout, p.WordBytes, runnable, tc.layout, tc.wordBytes, tc.runnable)
		}
		if p.FreqMHz != 500 || p.TableSize != 32 || m.NIsPerRouter != 2 || len(uc.Connections) != 12 {
			t.Errorf("%dx%d: %g MHz, table %d, %d NIs per router, %d connections; want 500, 32, 2, 12",
				tc.size, tc.size, p.FreqMHz, p.TableSize, m.NIsPerRouter, len(uc.Connections))
		}
		if _, _, err := w.Layout(); (err == nil) != tc.runnable {
			t.Errorf("%dx%d: Layout error %v disagrees with runnable %v", tc.size, tc.size, err, tc.runnable)
		}
	}
	w := Workload{Random: 6, Seed: 1, Cols: 10, Rows: 10, NIs: 1, FreqMHz: 800}
	if _, _, err := w.Layout(); err == nil || !strings.Contains(err.Error(), "a 10x10 mesh needs 19-hop headers") {
		t.Errorf("Layout error = %v, want the 19-hop header limit", err)
	}
	m, uc, p, _, err := w.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	if p.FreqMHz != 800 || p.TableSize != 0 || m.NIsPerRouter != 1 || len(uc.IPs) != 100 {
		t.Errorf("random: %g MHz, table %d, %d NIs per router, %d IPs; want 800, 0, 1, 100",
			p.FreqMHz, p.TableSize, m.NIsPerRouter, len(uc.IPs))
	}
	for _, ip := range uc.IPs {
		if ip.NI == topology.Invalid {
			t.Fatalf("random: IP %s left unmapped", ip.Name)
		}
	}
}
