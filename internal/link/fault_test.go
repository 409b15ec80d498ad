package link

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/sim"
)

// TestSkewBoundaryInclusive locks the envelope edge: "at most half a clock
// cycle" (paper Section V) is an inclusive bound, so skew of exactly
// Period/2 must build and run cleanly in strict mode, while the very first
// picosecond beyond it is rejected.
func TestSkewBoundaryInclusive(t *testing.T) {
	const period = 2000
	build := func(skew clock.Duration, rep fault.Reporter) *Stage {
		wclk := clock.New("w", period, 0)
		rclk := clock.New("r", period, skew)
		in := sim.NewWire[phit.Phit]("in")
		out := sim.NewWire[phit.Phit]("out")
		return NewStage("st", in, out, wclk, rclk, period, rep)
	}

	// Exactly half a period: legal, strict mode must not panic.
	if st := build(period/2, nil); st == nil {
		t.Fatal("stage not built at skew == period/2")
	}

	// Half a period plus one picosecond: strict mode fails fast...
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic at skew == period/2 + 1 in strict mode")
			}
		}()
		build(period/2+1, nil)
	}()

	// ...and collecting mode records exactly one SkewBound violation but
	// still builds the (deliberately out-of-envelope) stage.
	col := fault.NewCollector()
	st := build(period/2+1, col)
	if st == nil {
		t.Fatal("collecting mode refused to build an out-of-envelope stage")
	}
	if col.Total() != 1 || col.Violations()[0].Kind != fault.SkewBound {
		t.Fatalf("collected %v, want one skew-bound violation", col.Violations())
	}
}

// runFaultyStage builds source -> stage -> sink with a reporter and a
// mid-run perturbation, and returns the collector (collecting mode) after
// the run. In strict mode it runs with a nil reporter so the violation
// panics out of eng.Run.
func runFaultyStage(t *testing.T, rep fault.Reporter, partial bool, stretch clock.Duration) {
	t.Helper()
	eng := sim.New()
	wclk := clock.New("w", 2000, 0)
	rclk := clock.New("r", 2000, 500)
	in := sim.NewWire[phit.Phit]("in")
	out := sim.NewWire[phit.Phit]("out")
	eng.AddWire(in)
	eng.AddWire(out)
	st := NewStage("st", in, out, wclk, rclk, 2000, rep)
	for _, c := range st.Components() {
		eng.Add(c)
	}
	if partial {
		eng.Add(&partialSource{clk: wclk, out: in})
	} else {
		eng.Add(&flitSource{name: "src", clk: wclk, out: in, sendIn: []bool{true}})
	}
	if stretch > 0 {
		eng.At(20*2000, func() { st.StretchForwardDelay(stretch) })
	}
	eng.Run(120 * 2000)
}

// TestLinkViolations drives the stage's runtime envelope checks in both
// modes: partial flits underflow the FIFO, and a stretched synchroniser
// first overflows the (never-handshaked) FIFO and then breaks the
// one-flit-cycle latency claim.
func TestLinkViolations(t *testing.T) {
	cases := []struct {
		name    string
		kinds   []fault.Kind // any of these counts as detection
		partial bool
		stretch clock.Duration
	}{
		{name: "underflow-on-partial-flit", kinds: []fault.Kind{fault.FIFOUnderflow}, partial: true},
		{name: "stretched-synchroniser", kinds: []fault.Kind{fault.FIFOOverflow, fault.LinkLatency}, stretch: 9000},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/strict", func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic in strict mode")
				}
			}()
			runFaultyStage(t, nil, tc.partial, tc.stretch)
		})
		t.Run(tc.name+"/collect", func(t *testing.T) {
			col := fault.NewCollector()
			runFaultyStage(t, col, tc.partial, tc.stretch)
			if col.Total() == 0 {
				t.Fatal("no violations collected")
			}
			counts := col.CountByKind()
			found := false
			for _, k := range tc.kinds {
				if counts[k] > 0 {
					found = true
				}
			}
			if !found {
				t.Errorf("kinds %v missing from %v", tc.kinds, counts)
			}
		})
	}
}
