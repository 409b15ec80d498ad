package fault

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/parallel"
	"repro/internal/phit"
	"repro/internal/sim"
)

func TestRateRuleValidate(t *testing.T) {
	for _, r := range []RateRule{{BitFlip: -0.1}, {BitFlip: 1.01}, {Drop: -1}, {Drop: 2}} {
		if r.Validate() == nil {
			t.Errorf("Validate(%+v) accepted an out-of-range rate", r)
		}
	}
	if err := (RateRule{BitFlip: 1, Drop: 0}).Validate(); err != nil {
		t.Errorf("Validate rejected boundary rates: %v", err)
	}
}

func TestArmRatesNoMatchFails(t *testing.T) {
	targets, _ := dummyTargets()
	c := NewCampaign(&Plan{Seed: 1, Rates: []RateRule{{Target: "nosuchlink", Drop: 0.5}}}, NewCollector())
	if err := c.Arm(sim.New(), targets); err == nil {
		t.Fatalf("rate rule with no matching link armed without error")
	}
}

// kindDriver drives n phits of one kind, one per cycle, then idles.
type kindDriver struct {
	clk  *clock.Clock
	out  *sim.Wire[phit.Phit]
	kind phit.Kind
	n    int
	i    int
}

func (d *kindDriver) Name() string        { return "drv" }
func (d *kindDriver) Clock() *clock.Clock { return d.clk }
func (d *kindDriver) Update(now clock.Time) {
	v := phit.IdlePhit
	if d.i < d.n {
		v = phit.Phit{Valid: true, Kind: d.kind, Data: phit.Word(0xabc)}
	}
	d.i++
	d.out.Drive(v)
}

// runRated drives n phits of the kind through one rate-faulted wire via
// the production arming path and returns the observed phits plus the hook
// for its counters.
func runRated(t *testing.T, seed int64, rule RateRule, kind phit.Kind, n int) ([]phit.Phit, *LinkHook) {
	t.Helper()
	eng := sim.New()
	clk := clock.New("c", 1000, 0)
	w := sim.NewWire[phit.Phit]("w")
	eng.AddWire(w)
	c := NewCampaign(&Plan{Seed: seed, Rates: []RateRule{rule}}, NewCollector())
	if err := c.Arm(eng, Targets{Links: []LinkTarget{{Name: "w", Wire: w}}}); err != nil {
		t.Fatal(err)
	}
	var out []phit.Phit
	eng.Add(&kindDriver{clk: clk, out: w, kind: kind, n: n})
	eng.Add(&observer{clk: clk, wire: w, sink: &out})
	eng.Run(clock.Time(n+2) * 1000)
	return out, c.hooks[w]
}

func TestRateFaultsDeterministicAndSeedSensitive(t *testing.T) {
	rule := RateRule{BitFlip: 0.2, Drop: 0.1}
	const n = 600 // 200 flits' worth of payload phits
	a, ha := runRated(t, 42, rule, phit.Payload, n)
	b, hb := runRated(t, 42, rule, phit.Payload, n)
	if len(a) != len(b) {
		t.Fatalf("runs of one seed differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs of one seed diverge at phit %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if ha.BitsFlipped != hb.BitsFlipped || ha.FlitsDropped != hb.FlitsDropped {
		t.Fatalf("counters of one seed differ: %d/%d vs %d/%d",
			ha.BitsFlipped, ha.FlitsDropped, hb.BitsFlipped, hb.FlitsDropped)
	}
	if ha.BitsFlipped == 0 || ha.FlitsDropped == 0 {
		t.Fatalf("rates 0.2/0.1 over %d phits produced no faults (%d flips, %d drops)",
			n, ha.BitsFlipped, ha.FlitsDropped)
	}

	_, hc := runRated(t, 43, rule, phit.Payload, n)
	if hc.BitsFlipped == ha.BitsFlipped && hc.FlitsDropped == ha.FlitsDropped {
		t.Fatalf("different seeds produced identical fault tallies %d/%d",
			ha.BitsFlipped, ha.FlitsDropped)
	}
}

func TestRateBitflipSparesHeaders(t *testing.T) {
	// Headers must never be flipped (a flipped route would misroute the
	// whole packet): drive header phits only, at bit-flip rate 1.
	out, hook := runRated(t, 7, RateRule{BitFlip: 1}, phit.Header, 5)
	for i, p := range out {
		if p.Valid && p.Data != 0xabc {
			t.Fatalf("header phit %d flipped to %#x", i, p.Data)
		}
	}
	if hook.BitsFlipped != 0 {
		t.Fatalf("hook flipped %d bits of header phits", hook.BitsFlipped)
	}
}

func TestRateDropErasesWholeFlits(t *testing.T) {
	// At drop rate 1 every flit vanishes: nothing valid survives and the
	// counter counts flits, not phits.
	out, hook := runRated(t, 9, RateRule{Drop: 1}, phit.Payload, 4*phit.FlitWords)
	for i, p := range out {
		if p.Valid {
			t.Fatalf("phit %d survived a full drop rate: %+v", i, p)
		}
	}
	if hook.FlitsDropped != 4 {
		t.Fatalf("FlitsDropped = %d, want 4 (whole flits, not phits)", hook.FlitsDropped)
	}
}

func TestRunSweepZeroPoints(t *testing.T) {
	called := false
	got, err := parallel.Map(4, 0, func(i int) (*Summary, error) {
		called = true
		return &Summary{}, nil
	})
	if err != nil {
		t.Fatalf("a sweep with zero points failed: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("a sweep with zero points returned %d summaries", len(got))
	}
	if called {
		t.Fatalf("a sweep with zero points invoked the point function")
	}
}
