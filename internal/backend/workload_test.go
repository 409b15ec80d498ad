package backend

import (
	"math"
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

// TestWorkloadValidateBoundsSize: a mesh side past 32 or a connection count
// past 2400 is refused before anything is sized by it; a side of MaxInt64
// would wrap Layout's Cols+Rows-1 negative and fail allocating.
func TestWorkloadValidateBoundsSize(t *testing.T) {
	const huge = math.MaxInt64
	for _, tc := range []struct {
		name string
		w    Workload
		want string // substring of the error; "" means accepted
	}{
		{"random 32x32 of 2400", Workload{Random: 2400, Cols: 32, Rows: 32, NIs: 2, FreqMHz: 500}, ""},
		{"scenario 32x32 of 2400", Workload{Scenario: "uniform", Conns: 2400, Cols: 32, Rows: 32, NIs: 2, FreqMHz: 500}, ""},
		{"huge mesh", Workload{Random: 2, Cols: huge, Rows: huge, NIs: 2, FreqMHz: 500}, "past the 32x32 maximum"},
		{"33 columns", Workload{Random: 2, Cols: 33, Rows: 2, NIs: 2, FreqMHz: 500}, "mesh 33x2"},
		{"33 rows", Workload{Random: 2, Cols: 2, Rows: 33, NIs: 2, FreqMHz: 500}, "mesh 2x33"},
		{"random 2401", Workload{Random: 2401, Cols: 4, Rows: 4, NIs: 2, FreqMHz: 500}, "2401 connections"},
		{"conns 2^40", Workload{Scenario: "uniform", Conns: 1 << 40, Cols: 4, Rows: 4, NIs: 2, FreqMHz: 500}, "1099511627776 connections"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.w.Validate()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("err = %v, want a rejection naming %q", err, tc.want)
			}
		})
	}
}
