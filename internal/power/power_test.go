package power

import (
	"strings"
	"testing"

	"repro/internal/phit"
	"repro/internal/route"
	"repro/internal/slots"
	"repro/internal/topology"
)

// alloc builds a small allocation: one connection with `count` slots from
// NI(0,0,0) to NI(1,0,0) over a 2x1 mesh.
func alloc(t *testing.T, count, tableSize int) (*topology.Mesh, *slots.Allocation) {
	t.Helper()
	m := topology.NewMesh(2, 1, 1)
	paths, err := route.Candidates(m, m.NIAt(0, 0, 0), m.NIAt(1, 0, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := slots.AllocateWith(slots.Greedy{}, tableSize, []slots.Request{
		{Conn: phit.ConnID(1), Paths: paths, Count: count},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, a
}

func TestAnalyzeBasics(t *testing.T) {
	m, a := alloc(t, 2, 8)
	rep := Analyze(m, a, 32, 500)
	if len(rep.Routers) != 2 {
		t.Fatalf("routers = %d", len(rep.Routers))
	}
	for _, r := range rep.Routers {
		if r.IdleUW <= 0 {
			t.Errorf("%s idle power %v", r.Name, r.IdleUW)
		}
		// 2 of 8 slots carry flits, but a flit wakes its router in
		// both its arrival and its (shifted) departure slot: awake
		// fraction 4/8.
		if r.AwakeFraction != 0.5 {
			t.Errorf("%s awake fraction %v, want 0.5", r.Name, r.AwakeFraction)
		}
		if r.SleepUW >= r.IdleUW {
			t.Errorf("%s sleep power %v not below idle %v", r.Name, r.SleepUW, r.IdleUW)
		}
		want := r.IdleUW * (0.5 + 0.5*SleepResidual)
		if d := r.SleepUW - want; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s sleep power %v, want %v", r.Name, r.SleepUW, want)
		}
		if r.DynamicUW <= 0 {
			t.Errorf("%s zero dynamic power with traffic", r.Name)
		}
	}
	// Saving = 1 - (0.5 + 0.5*residual) = 0.425 at this load.
	if rep.SavingFraction < 0.4 || rep.SavingFraction > 0.45 {
		t.Errorf("saving fraction %v, want ~0.425", rep.SavingFraction)
	}
	if !strings.Contains(rep.String(), "sleep") {
		t.Error("String() lacks summary")
	}
}

func TestAnalyzeIdleNetworkSleepsFully(t *testing.T) {
	m := topology.NewMesh(2, 1, 1)
	a := slots.NewAllocation(8) // nothing allocated
	rep := Analyze(m, a, 32, 500)
	for _, r := range rep.Routers {
		if r.AwakeFraction != 0 {
			t.Errorf("%s awake %v with no traffic", r.Name, r.AwakeFraction)
		}
		want := r.IdleUW * SleepResidual
		if d := r.SleepUW - want; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s sleeping power %v, want residual %v", r.Name, r.SleepUW, want)
		}
		if r.DynamicUW != 0 {
			t.Errorf("%s dynamic power %v with no traffic", r.Name, r.DynamicUW)
		}
	}
	if rep.SavingFraction < 0.84 {
		t.Errorf("saving %v, want 1-SleepResidual", rep.SavingFraction)
	}
}

func TestAnalyzeSaturatedRouterNeverSleeps(t *testing.T) {
	m, a := alloc(t, 8, 8) // every slot owned
	rep := Analyze(m, a, 32, 500)
	for _, r := range rep.Routers {
		if r.AwakeFraction != 1 {
			t.Errorf("%s awake %v with a saturated link", r.Name, r.AwakeFraction)
		}
		if r.SleepUW != r.IdleUW {
			t.Errorf("%s sleep power %v should equal idle %v at full load", r.Name, r.SleepUW, r.IdleUW)
		}
	}
	if rep.SavingFraction != 0 {
		t.Errorf("saving %v on a saturated network", rep.SavingFraction)
	}
}

func TestFrequencyScaling(t *testing.T) {
	m, a := alloc(t, 2, 8)
	lo := Analyze(m, a, 32, 250)
	hi := Analyze(m, a, 32, 500)
	// Idle power scales superlinearly with f (area also grows near
	// fmax), at least linearly here.
	if hi.IdleUW < 1.9*lo.IdleUW {
		t.Errorf("idle power %v -> %v; expected ~2x from 250 to 500 MHz", lo.IdleUW, hi.IdleUW)
	}
	if hi.DynamicUW < 1.9*lo.DynamicUW {
		t.Errorf("dynamic power %v -> %v", lo.DynamicUW, hi.DynamicUW)
	}
}
