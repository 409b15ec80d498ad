package core_test

import (
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// consults counts the engine's per-instant calls into the fast path it
// wraps.
type consults struct {
	sim.FastPath
	calls int
}

func (c *consults) Step(until clock.Time) sim.FastResult {
	c.calls++
	return c.FastPath.Step(until)
}

func (c *consults) Observe(now clock.Time, edges int) {
	c.calls++
	c.FastPath.Observe(now, edges)
}

// TestBEReplayInertOnTransactional pins what an aperiodic best-effort run
// pays for its program: the Section VII baseline offers whole transactions
// at rate-exact spacing, so a generator has no admissible period, the
// program goes inert at its first observation naming that generator, and
// it takes itself off the engine — the rest of the run never consults it.
func TestBEReplayInertOnTransactional(t *testing.T) {
	n, _, err := experiments.BuildSec7BE(experiments.Sec7Seed, 500)
	if err != nil {
		t.Fatal(err)
	}
	p := n.Replay()
	if p == nil {
		t.Fatal("the default build installed no program")
	}
	eng := n.Engine()
	spy := &consults{FastPath: p}
	eng.SetFastPath(spy)
	eng.Run(eng.Now() + 20*clock.Time(clock.Nanosecond))
	if inert, why := p.Inert(); !inert || !strings.Contains(why, "gen.c") {
		t.Fatalf("inert = %v (%q); want inert, naming a generator", inert, why)
	}
	if spy.calls == 0 {
		t.Fatal("the program was never consulted; the detach check is vacuous")
	}
	before := spy.calls
	rep := n.Run(4000, 10000)
	if spy.calls != before {
		t.Errorf("an inert program was consulted %d more times", spy.calls-before)
	}
	if got := p.ProgStats().Engagements; got != 0 {
		t.Errorf("inert program engaged %d times", got)
	}
	if rep.TotalEdges == 0 {
		t.Error("the run simulated nothing")
	}
}
