package sim

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/clock"
)

// TestAtTimerOnlyInstant: a scheduled callback fires at its exact
// picosecond even when no clock has an edge there, and the instant counts
// as executed.
func TestAtTimerOnlyInstant(t *testing.T) {
	eng := New()
	clk := clock.New("c", 1000, 0)
	a := &counter{name: "a", clk: clk}
	eng.Add(a)
	var firedAt clock.Time = -1
	eng.At(1500, func() { firedAt = eng.Now() })
	instants := eng.Run(3000)
	if firedAt != 1500 {
		t.Errorf("callback fired at %d, want 1500", firedAt)
	}
	// Edges at 1000, 2000, 3000 plus the timer-only instant 1500.
	if instants != 4 {
		t.Errorf("instants = %d, want 4", instants)
	}
	if a.updates != 3 {
		t.Errorf("component ran %d edges, want 3 — the timer instant must not dispatch components", a.updates)
	}
}

// TestAtOrdering: callbacks run in time order, and same-instant callbacks
// in registration order.
func TestAtOrdering(t *testing.T) {
	eng := New()
	clk := clock.New("c", 1000, 0)
	eng.Add(&counter{name: "a", clk: clk})
	var order []string
	eng.At(1500, func() { order = append(order, "a") })
	eng.At(1500, func() { order = append(order, "b") })
	eng.At(700, func() { order = append(order, "c") })
	eng.Run(2000)
	if len(order) != 3 || order[0] != "c" || order[1] != "a" || order[2] != "b" {
		t.Errorf("callback order %v, want [c a b]", order)
	}
}

// TestAtClampsPastTimes: scheduling at or before the current instant fires
// at the next executed instant instead of being dropped or rewinding time.
func TestAtClampsPastTimes(t *testing.T) {
	eng := New()
	clk := clock.New("c", 1000, 0)
	eng.Add(&counter{name: "a", clk: clk})
	var times []clock.Time
	eng.At(0, func() { times = append(times, eng.Now()) }) // at time zero: clamped to 1
	eng.At(1500, func() {
		times = append(times, eng.Now())
		// From inside a callback, a past time lands strictly after now.
		eng.At(100, func() { times = append(times, eng.Now()) })
	})
	eng.Run(3000)
	if len(times) != 3 {
		t.Fatalf("fired %d callbacks, want 3: %v", len(times), times)
	}
	if times[0] != 1 || times[1] != 1500 || times[2] != 1501 {
		t.Errorf("fire times %v, want [1 1500 1501]", times)
	}
}

// TestAtRunsBeforeEdges: a callback at an instant that coincides with a
// clock edge runs before the components dispatch there — injected
// perturbations take effect in the same cycle.
func TestAtRunsBeforeEdges(t *testing.T) {
	eng := New()
	clk := clock.New("c", 1000, 0)
	a := &counter{name: "a", clk: clk}
	eng.Add(a)
	updatesSeen := -1
	eng.At(2000, func() { updatesSeen = a.updates })
	eng.Run(3000)
	if updatesSeen != 1 {
		t.Errorf("callback at 2000 saw %d updates, want 1 (the edge at 1000 only)", updatesSeen)
	}
}

// TestInvalidateScheduleAfterPeriodChange: mutating a clock's period from a
// scheduled callback (plus InvalidateSchedule) moves every subsequent edge
// to the new cadence without skipping the edge due at the mutation instant.
func TestInvalidateScheduleAfterPeriodChange(t *testing.T) {
	eng := New()
	clk := clock.New("c", 1000, 0)
	a := &counter{name: "a", clk: clk}
	eng.Add(a)
	eng.At(3500, func() {
		clk.Period = 500
		eng.InvalidateSchedule()
	})
	eng.Run(6000)
	// Old cadence: 1000, 2000, 3000. The new cadence (period 500, phase 0)
	// has an edge exactly at the mutation instant 3500, which still fires,
	// then 4000, 4500, 5000, 5500, 6000.
	if a.updates != 9 {
		t.Errorf("updates = %d, want 9 after mid-run period change", a.updates)
	}
	if a.lastTime != 6000 {
		t.Errorf("last edge at %d, want 6000", a.lastTime)
	}
}

// TestInvalidateScheduleAfterPhaseStep: a phase step that would place the
// clock's next edge in the past rounds up to the current instant instead of
// stalling or rewinding the group.
func TestInvalidateScheduleAfterPhaseStep(t *testing.T) {
	eng := New()
	clk := clock.New("c", 1000, 0)
	a := &counter{name: "a", clk: clk}
	eng.Add(a)
	eng.At(2500, func() {
		clk.Phase = 300
		eng.InvalidateSchedule()
	})
	eng.Run(5000)
	// Old cadence: 1000, 2000. New cadence from 2500: 3300, 4300.
	if a.updates != 4 {
		t.Errorf("updates = %d, want 4 after phase step", a.updates)
	}
	if a.lastTime != 4300 {
		t.Errorf("last edge at %d, want 4300", a.lastTime)
	}
}

// TestCoincidentClockAndTimer: when a timer and a clock edge share an
// instant, both execute and the instant is counted once.
func TestCoincidentClockAndTimer(t *testing.T) {
	eng := New()
	clk := clock.New("c", 1000, 0)
	a := &counter{name: "a", clk: clk}
	eng.Add(a)
	fired := false
	eng.At(2000, func() { fired = true })
	instants := eng.Run(2000)
	if !fired || a.updates != 2 {
		t.Errorf("fired=%v updates=%d, want callback and both edges", fired, a.updates)
	}
	if instants != 2 {
		t.Errorf("instants = %d, want 2 — coincident timer and edge share an instant", instants)
	}
}

// dispatch is one component edge: the instant and the component's position
// in add order.
type dispatch struct {
	at  clock.Time
	idx int
}

// recorder logs its own edges; Sample and Update must see the same instant.
type recorder struct {
	clk     *clock.Clock
	idx     int
	sampled clock.Time
	log     *[]dispatch
}

func (r *recorder) Name() string          { return "rec" }
func (r *recorder) Clock() *clock.Clock   { return r.clk }
func (r *recorder) Sample(now clock.Time) { r.sampled = now }
func (r *recorder) Update(now clock.Time) {
	if r.sampled != now {
		now = -now // poison the log: Update without a matching Sample
	}
	*r.log = append(*r.log, dispatch{now, r.idx})
}

// schedCase is one randomly drawn schedule: clocks, which clock drives each
// component, and timed mutations (a period change followed by
// InvalidateSchedule, or the removal of a component).
type schedCase struct {
	periods, phases []clock.Duration
	compClk         []int
	mutations       []schedMutation
	chunks          []clock.Time // Run is called once per chunk boundary
}

type schedMutation struct {
	at        clock.Time
	clk       int            // period change: which clock ...
	newPeriod clock.Duration // ... and its new period; 0 means remove instead
	remove    int            // component to remove
}

func drawSchedCase(rng *rand.Rand, kind int) schedCase {
	var c schedCase
	nClk := 1 + rng.Intn(12)
	base := clock.Duration(500 + rng.Intn(1500))
	coprime := []clock.Duration{701, 1009, 1303, 1999, 2003, 997, 1511, 2477, 811, 1213, 1747, 653}
	for i := 0; i < nClk; i++ {
		p := base // kind 0: equal periods, random phases
		switch kind {
		case 1: // pairwise coprime periods
			p = coprime[i]
		case 2: // harmonics of one base and shared phases: many coincident edges
			p = base * clock.Duration(1+rng.Intn(3))
		}
		ph := clock.Duration(rng.Int63n(int64(p)))
		if kind == 2 || rng.Intn(4) == 0 {
			ph = clock.Duration(rng.Intn(2)) * base / 2
		}
		c.periods = append(c.periods, p)
		c.phases = append(c.phases, ph)
	}
	nComp := nClk + rng.Intn(2*nClk)
	for i := 0; i < nComp; i++ {
		c.compClk = append(c.compClk, rng.Intn(nClk)) // some clocks may drive nothing
	}
	end := clock.Time(40 * base)
	for i := rng.Intn(4); i > 0; i-- {
		m := schedMutation{at: clock.Time(rng.Int63n(int64(end))), clk: rng.Intn(nClk)}
		if rng.Intn(2) == 0 {
			m.newPeriod = c.periods[m.clk]/2 + clock.Duration(rng.Intn(1000)) + 1
		} else {
			m.remove = rng.Intn(nComp)
		}
		if rng.Intn(3) == 0 {
			// Land exactly on an edge of the mutated clock.
			m.at = c.phases[m.clk] + clock.Time(1+rng.Intn(20))*c.periods[m.clk]
		}
		c.mutations = append(c.mutations, m)
	}
	for t := clock.Time(0); t < end; {
		t += clock.Time(1 + rng.Int63n(int64(10*base)))
		c.chunks = append(c.chunks, t)
	}
	return c
}

// build instantiates the case on fresh clocks and recorders.
func (c schedCase) build(log *[]dispatch) ([]*clock.Clock, []*recorder) {
	clks := make([]*clock.Clock, len(c.periods))
	for i := range clks {
		clks[i] = clock.New("c", c.periods[i], c.phases[i])
	}
	comps := make([]*recorder, len(c.compClk))
	for i, k := range c.compClk {
		comps[i] = &recorder{clk: clks[k], idx: i, log: log}
	}
	return clks, comps
}

// runEngine drives the case through the real scheduler.
func (c schedCase) runEngine() []dispatch {
	var log []dispatch
	clks, comps := c.build(&log)
	eng := New()
	for _, r := range comps {
		eng.Add(r)
	}
	for _, m := range c.mutations {
		eng.At(m.at, func() {
			if m.newPeriod > 0 {
				clks[m.clk].Period = m.newPeriod
				eng.InvalidateSchedule()
			} else {
				eng.Remove(comps[m.remove])
			}
		})
	}
	for _, until := range c.chunks {
		eng.Run(until)
	}
	return log
}

// runOracle is the brute-force schedule: no heap, no groups, no cached next
// edges. At every instant it asks each live component's clock whether it
// has an edge there, and finds the next instant by scanning all of them.
func (c schedCase) runOracle() []dispatch {
	var log []dispatch
	clks, comps := c.build(&log)
	live := make([]bool, len(comps))
	for i := range live {
		live[i] = true
	}
	muts := append([]schedMutation(nil), c.mutations...)
	for i := range muts {
		if muts[i].at <= 0 {
			muts[i].at = 1 // Engine.At clamps to strictly after now
		}
	}
	end := c.chunks[len(c.chunks)-1]
	for now := clock.Time(0); ; {
		next := clock.Infinity
		for i, r := range comps {
			if live[i] {
				next = min(next, r.clk.NextEdge(now))
			}
		}
		for _, m := range muts {
			if m.at > now {
				next = min(next, m.at)
			}
		}
		if next > end {
			return log
		}
		now = next
		for _, m := range muts { // registration order at equal instants
			if m.at != now {
				continue
			}
			if m.newPeriod > 0 {
				clks[m.clk].Period = m.newPeriod
			} else {
				live[m.remove] = false
			}
		}
		for i, r := range comps {
			if live[i] && r.clk.NextEdge(now-1) == now {
				r.Sample(now)
			}
		}
		for i, r := range comps {
			if live[i] && r.clk.NextEdge(now-1) == now {
				r.Update(now)
			}
		}
	}
}

// TestSchedulerMatchesBruteForce: over random clock sets — equal periods,
// coprime periods, coincident edges, mid-run period mutation with
// InvalidateSchedule, Remove from a callback, Run split into arbitrary
// chunks — the engine dispatches exactly the (time, add-index) sequence a
// scan of Clock.NextEdge over every component produces.
func TestSchedulerMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 600; trial++ {
		c := drawSchedCase(rng, trial%3)
		got, want := c.runEngine(), c.runOracle()
		if len(want) == 0 {
			t.Fatalf("trial %d: oracle dispatched nothing", trial)
		}
		if !slices.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("trial %d (%+v): %d engine dispatches, %d oracle; first difference at #%d: engine %v, oracle %v",
				trial, c, len(got), len(want), i, got[i:min(i+3, len(got))], want[i:min(i+3, len(want))])
		}
	}
}
