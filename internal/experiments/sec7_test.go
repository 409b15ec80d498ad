package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// TestSec7AeliteMeetsAt500 is the paper's first Section VII result: the
// 200-connection, 4-application workload is satisfied at 500 MHz, every
// measured latency stays within its analytical bound, and zero
// requirements are missed.
func TestSec7AeliteMeetsAt500(t *testing.T) {
	rep, err := Sec7Aelite(Sec7Seed, 500, core.Synchronous, 40000)
	if err != nil {
		t.Fatalf("Sec7Aelite: %v", err)
	}
	if len(rep.Conns) != 200 {
		t.Fatalf("got %d connections, want 200", len(rep.Conns))
	}
	if !rep.AllMet() {
		var b strings.Builder
		rep.Write(&b)
		t.Fatalf("requirements missed at 500 MHz:\n%s", b.String())
	}
	if !rep.AllWithinBound() {
		t.Error("a measured latency exceeded its analytical bound")
	}
	for _, c := range rep.Conns {
		if c.Delivered == 0 {
			t.Errorf("connection %d delivered nothing", c.Conn)
		}
	}
}

// TestSec7BEViolatesAt500 is the contrast: the same requirements under
// best effort (with opportunistic offered rates) are widely violated at
// 500 MHz.
func TestSec7BEViolatesAt500(t *testing.T) {
	rep, err := Sec7BEFactor(Sec7Seed, 500, 40000, Sec7BEOpportunism)
	if err != nil {
		t.Fatalf("Sec7BEFactor: %v", err)
	}
	v := rep.Violations()
	if len(v) < 20 {
		t.Errorf("only %d BE violations at 500 MHz; expected widespread latency misses", len(v))
	}
}

// TestSec7Comparison checks the qualitative contrasts of Section VII:
// BE's latency spread and maxima grow dramatically while aelite holds
// every bound, and the GS+BE router network costs roughly 5x.
func TestSec7Comparison(t *testing.T) {
	cmp, gs, be, err := Compare(Sec7Seed, 500, 40000, 2)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if !cmp.AeliteAllMet {
		t.Error("aelite missed a requirement")
	}
	if cmp.BEAllMet {
		t.Error("BE met everything at 500 MHz; the comparison shows no contrast")
	}
	if cmp.SpreadRatio < 1.5 {
		t.Errorf("BE/GS spread ratio %.2f; paper reports a much larger distribution", cmp.SpreadRatio)
	}
	if cmp.MaxRatio < 2 {
		t.Errorf("BE/GS max-latency ratio %.2f; paper reports significant growth", cmp.MaxRatio)
	}
	a, g := RouterNetworkAreas(500)
	if ratio := g / a; ratio < 4 || ratio > 6 {
		t.Errorf("router network area ratio %.1f outside 'roughly 5 times'", ratio)
	}
	_ = gs
	_ = be
}

// TestSec7FrequencyScan reproduces the headline: the BE network needs
// more than 900 MHz before simulation meets every requirement, versus
// aelite's 500 MHz.
func TestSec7FrequencyScan(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-frequency scan is slow")
	}
	points, crossover, err := FrequencyScan(Sec7Seed, []float64{500, 900, 1000}, 40000, 0)
	if err != nil {
		t.Fatalf("FrequencyScan: %v", err)
	}
	if points[0].AllMet {
		t.Error("BE met everything at 500 MHz")
	}
	if points[1].AllMet {
		t.Error("BE met everything at 900 MHz; the paper's crossover is above 900")
	}
	if !points[2].AllMet {
		t.Error("BE still violating at 1000 MHz; crossover should be between 900 and 1000")
	}
	if crossover != 1000 {
		t.Errorf("crossover at %.0f MHz, want 1000 in this scan", crossover)
	}
}

// TestSec7Mesochronous re-runs the aelite workload on mesochronous links:
// same guarantees, arbitrary tile phases.
func TestSec7Mesochronous(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rep, err := Sec7Aelite(Sec7Seed, 500, core.Mesochronous, 30000)
	if err != nil {
		t.Fatalf("Sec7Aelite mesochronous: %v", err)
	}
	if !rep.AllMet() {
		var b strings.Builder
		rep.Write(&b)
		t.Fatalf("requirements missed on mesochronous aelite:\n%s", b.String())
	}
}
