package clock

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPeriodFromMHz(t *testing.T) {
	cases := []struct {
		mhz  float64
		want Duration
	}{
		{500, 2000},
		{1000, 1000},
		{250, 4000},
		{875, 1143},
	}
	for _, c := range cases {
		if got := PeriodFromMHz(c.mhz); got != c.want {
			t.Errorf("PeriodFromMHz(%v) = %d, want %d", c.mhz, got, c.want)
		}
	}
	if got := MHzFromPeriod(2000); got != 500 {
		t.Errorf("MHzFromPeriod(2000) = %v", got)
	}
}

func TestPeriodFromMHzPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for non-positive frequency")
		}
	}()
	PeriodFromMHz(0)
}

func TestNewNormalisesPhase(t *testing.T) {
	c := New("x", 2000, 4500)
	if c.Phase != 500 {
		t.Errorf("phase = %d, want 500", c.Phase)
	}
	c = New("x", 2000, -500)
	if c.Phase != 1500 {
		t.Errorf("negative phase normalised to %d, want 1500", c.Phase)
	}
}

func TestNewPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for non-positive period")
		}
	}()
	New("x", 0, 0)
}

func TestEdges(t *testing.T) {
	c := New("c", 1000, 250)
	if got := c.EdgeAt(0); got != 250 {
		t.Errorf("EdgeAt(0) = %d", got)
	}
	if got := c.EdgeAt(3); got != 3250 {
		t.Errorf("EdgeAt(3) = %d", got)
	}
	// NextEdge is strictly after t.
	cases := []struct{ t, want Time }{
		{0, 250}, {249, 250}, {250, 1250}, {251, 1250}, {1250, 2250},
	}
	for _, cse := range cases {
		if got := c.NextEdge(cse.t); got != cse.want {
			t.Errorf("NextEdge(%d) = %d, want %d", cse.t, got, cse.want)
		}
	}
	if n, ok := c.EdgeIndex(3250); !ok || n != 3 {
		t.Errorf("EdgeIndex(3250) = %d,%v", n, ok)
	}
	if _, ok := c.EdgeIndex(3251); ok {
		t.Error("EdgeIndex accepted off-edge time")
	}
	if _, ok := c.EdgeIndex(0); ok {
		t.Error("EdgeIndex accepted time before phase")
	}
	if got := c.CyclesIn(5500); got != 5 {
		t.Errorf("CyclesIn(5500) = %d", got)
	}
}

// TestNextEdgeQuick: NextEdge always returns an edge, strictly in the
// future, and no earlier edge exists in between.
func TestNextEdgeQuick(t *testing.T) {
	f := func(rawPeriod uint16, rawPhase uint32, rawT uint32) bool {
		period := Duration(rawPeriod%5000) + 1
		c := New("q", period, Duration(rawPhase))
		tm := Time(rawT)
		e := c.NextEdge(tm)
		if e <= tm {
			return false
		}
		if _, ok := c.EdgeIndex(e); !ok {
			return false
		}
		// No edge strictly between tm and e.
		if e-period > tm {
			if _, ok := c.EdgeIndex(e - period); ok {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMesochronous(t *testing.T) {
	base := NewMHz("base", 500, 0)
	m := Mesochronous(base, "m", 700)
	if m.Period != base.Period {
		t.Error("mesochronous clock changed period")
	}
	if m.Phase != 700 {
		t.Errorf("phase = %d", m.Phase)
	}
}

func TestPlesiochronous(t *testing.T) {
	base := NewMHz("base", 500, 0)
	fast := Plesiochronous(base, "f", -1000, 10) // 1000 ppm fast
	slow := Plesiochronous(base, "s", +1000, 10)
	if fast.Period >= base.Period {
		t.Errorf("fast period %d not below base %d", fast.Period, base.Period)
	}
	if slow.Period <= base.Period {
		t.Errorf("slow period %d not above base %d", slow.Period, base.Period)
	}
	if got := Plesiochronous(base, "z", 0, 0).Period; got != base.Period {
		t.Errorf("zero-ppm period = %d", got)
	}
}

// TestPlesiochronousRoundsToPicoseconds pins the period rounding: at
// 500 MHz one picosecond is 500 ppm of the period, so every |ppm| < 250
// gives the base period exactly (a "200 ppm" clock set is equal-period),
// and 1000 ppm moves the period by 2 ps.
func TestPlesiochronousRoundsToPicoseconds(t *testing.T) {
	base := NewMHz("base", 500, 0)
	for _, c := range []struct {
		ppm  float64
		want Duration
	}{{200, 2000}, {-200, 2000}, {249, 2000}, {-249, 2000}, {251, 2001}, {1000, 2002}, {-1000, 1998}} {
		if got := Plesiochronous(base, "p", c.ppm, 0).Period; got != c.want {
			t.Errorf("Plesiochronous(500 MHz, %g ppm) period = %d ps, want %d", c.ppm, got, c.want)
		}
	}
}

func TestString(t *testing.T) {
	c := NewMHz("clk", 500, 100)
	if got := c.String(); got != "clk(500.0 MHz, phase 100 ps)" {
		t.Errorf("String() = %q", got)
	}
	if got := c.FrequencyMHz(); got != 500 {
		t.Errorf("FrequencyMHz = %v", got)
	}
}
