package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// allocOnlyScaleConfig is a cheap study for tests: every family and both
// allocators on one small allocation-only mesh.
func allocOnlyScaleConfig() ScaleConfig {
	return ScaleConfig{
		Seed:       Sec7Seed,
		Families:   scenario.Families(),
		Meshes:     []ScaleMesh{{Cols: 4, Rows: 4, Conns: 60}},
		Allocators: []string{"greedy", "ripup"},
		WarmupNs:   2000,
		MeasureNs:  4000,
	}
}

// TestScaleStudyDeterministic runs the same study at 1 and 4 workers and
// requires the rendering and the JSON artifact to be byte-identical.
func TestScaleStudyDeterministic(t *testing.T) {
	render := func(jobs int) []byte {
		rep, err := ScaleStudy(allocOnlyScaleConfig(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		rep.Render(&buf)
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial, wide := render(1), render(4)
	if !bytes.Equal(serial, wide) {
		t.Errorf("study rendering differs between 1 and 4 workers:\n--- 1 worker ---\n%s--- 4 workers ---\n%s", serial, wide)
	}
}

// TestScaleStudyVerify runs the cheap study end to end and checks the
// acceptance contract holds: rip-up never below greedy, full placement on
// the small mesh.
func TestScaleStudyVerify(t *testing.T) {
	rep, err := ScaleStudy(allocOnlyScaleConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Points); got != 2*len(scenario.Families()) {
		t.Fatalf("%d points, want %d", got, 2*len(scenario.Families()))
	}
	if err := rep.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	for _, p := range rep.Points {
		// Plan outcomes are per data connection (each with its paired
		// credit channel folded in).
		if p.Placed+p.Failed != p.Conns {
			t.Errorf("%s/%s: %d outcomes for %d requested connections",
				p.Family, p.Allocator, p.Placed+p.Failed, p.Conns)
		}
	}
}

// TestScaleVerifyCatchesRegression feeds Verify a hand-built report where
// rip-up lost to greedy and where a simulated point broke a bound.
func TestScaleVerifyCatchesRegression(t *testing.T) {
	rep := &ScaleReport{Points: []ScalePoint{
		{Family: "uniform", Cols: 4, Rows: 4, Allocator: "greedy", SuccessRate: 0.9},
		{Family: "uniform", Cols: 4, Rows: 4, Allocator: "ripup", SuccessRate: 0.8},
	}}
	if err := rep.Verify(); err == nil || !strings.Contains(err.Error(), "below greedy") {
		t.Errorf("Verify missed the ripup regression: %v", err)
	}
	rep = &ScaleReport{Points: []ScalePoint{
		{Family: "uniform", Cols: 4, Rows: 4, Allocator: "greedy", SuccessRate: 1, Simulated: true, AuditViolations: 3},
	}}
	if err := rep.Verify(); err == nil || !strings.Contains(err.Error(), "violations") {
		t.Errorf("Verify missed the audit violations: %v", err)
	}
	rep = &ScaleReport{Points: []ScalePoint{
		{Family: "uniform", Cols: 4, Rows: 4, Allocator: "greedy", SuccessRate: 1, Simulated: true, AllWithinBound: false},
	}}
	if err := rep.Verify(); err == nil || !strings.Contains(err.Error(), "bound") {
		t.Errorf("Verify missed the bound excess: %v", err)
	}
}
