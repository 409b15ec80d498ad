package sim

import (
	"fmt"
	"math"
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

// dispatch is one component edge: the instant, the component's position
// in add order, and the value it read off its input wire.
type dispatch struct {
	at   clock.Time
	idx  int
	read int
}

// recorder logs its own edges and what it reads off its input wire, and
// drives its output wire on two edges in three. poke, when set, runs after
// every pokeEvery-th Update.
type recorder struct {
	clk       *clock.Clock
	idx       int
	in, out   *Wire[int]
	log       *[]dispatch
	poke      func()
	pokeEvery int
	updates   int
}

func (r *recorder) Name() string        { return "rec" }
func (r *recorder) Clock() *clock.Clock { return r.clk }
func (r *recorder) Update(now clock.Time) {
	*r.log = append(*r.log, dispatch{now, r.idx, r.in.Read()})
	if r.updates++; r.updates%3 != 0 {
		r.out.Drive(1000*r.idx + r.updates)
	}
	if r.poke != nil && r.updates%r.pokeEvery == 0 {
		r.poke()
	}
}

// napper logs its real edges like a recorder, but is a Sleeper: it
// promises a random number of idle edges after each one, hundreds of them
// in long cases and mostly one to three in short ones, and adds up the
// edges it is told it slept through. It reads and drives no wire, as no
// Sleeper's skipped edge may.
type napper struct {
	clk     *clock.Clock
	idx     int
	log     *[]dispatch
	rng     *rand.Rand
	long    bool
	short   bool
	promise int64 // the last Idle answer, less the edges skipped since
	at      clock.Time
	skipped int64 // sum of Skip counts
	bad     string
	// invalidated, when set, is the last instant a component invalidated
	// the schedule from inside its Update: the engine rebuilds, and wakes
	// every Sleeper, before the next instant, so a promise made later in
	// that instant may be cut short.
	invalidated *clock.Time
}

func (n *napper) Name() string        { return "nap" }
func (n *napper) Clock() *clock.Clock { return n.clk }
func (n *napper) Update(now clock.Time) {
	*n.log = append(*n.log, dispatch{now, n.idx, 0})
	if n.promise > 0 && n.bad == "" && (n.invalidated == nil || *n.invalidated != n.at) {
		n.bad = fmt.Sprintf("dispatched at %d with %d promised idle edges left", now, n.promise)
	}
	n.promise = 0
}
func (n *napper) Idle(now clock.Time) int64 {
	n.at = now
	switch r := n.rng.Intn(10); {
	case r < 3:
		n.promise = 0
	case r == 3:
		n.promise = math.MaxInt64 // a disabled generator's answer
	case n.long && r < 7:
		n.promise = 100 + n.rng.Int63n(800)
	case n.short && r < 8:
		n.promise = 1 + n.rng.Int63n(3)
	default:
		n.promise = 1 + n.rng.Int63n(8)
	}
	return n.promise
}
func (n *napper) Skip(k int64) {
	if k <= 0 || k > n.promise {
		n.bad = fmt.Sprintf("Skip(%d) after a promise of %d idle edges", k, n.promise)
	}
	n.promise -= k
	n.skipped += k
}

// schedCase is one randomly drawn schedule: clocks, which clock drives each
// component, one wire per clock (written by that clock's recorders, read by
// the next clock's, and maybe intercepted from the start or only from the
// first Run's return on), and timed mutations (a period change followed by
// InvalidateSchedule, the removal of a component, or a drive from a
// callback).
type schedCase struct {
	periods, phases []clock.Duration
	compClk         []int
	sleepy          []bool // which components are nappers
	long            bool   // nappers sleep for hundreds of edges
	short           bool   // nappers mostly sleep for one to three edges
	pokeEvery       int    // a poking recorder wakes every Sleeper after this many Updates
	hooked          []int  // per wire: 0 no intercept, 1 from the start, 2 from the first Run's return
	mutations       []schedMutation
	chunks          []clock.Time // Run is called once per chunk boundary
}

type schedMutation struct {
	at        clock.Time
	clk       int            // period change: which clock ...
	newPeriod clock.Duration // ... and its new period; 0 means remove, drive or wake instead
	remove    int            // component to remove
	drive     int            // when positive, the value driven onto clock clk's wire instead
	wake      bool           // instead, a callback that changes nothing: it only wakes
}

func drawSchedCase(rng *rand.Rand, kind int) schedCase {
	var c schedCase
	nClk := 1 + rng.Intn(12)
	base := clock.Duration(500 + rng.Intn(1500))
	switch kind {
	case 3:
		nClk = 1 + rng.Intn(60)
		base = clock.Duration(1500 + rng.Intn(1000))
	case 4:
		nClk = 1 + rng.Intn(4)
		c.long = true
	case 5:
		nClk = 2 + rng.Intn(5)
		c.short = true
	}
	c.pokeEvery = 8
	coprime := []clock.Duration{701, 1009, 1303, 1999, 2003, 997, 1511, 2477, 811, 1213, 1747, 653}
	baseClk := clock.New("base", base, 0)
	for i := 0; i < nClk; i++ {
		p := base // kinds 0 and 4: equal periods, random phases
		switch kind {
		case 1: // pairwise coprime periods
			p = coprime[i]
		case 2: // harmonics of one base and shared phases: many coincident edges
			p = base * clock.Duration(1+rng.Intn(3))
		case 3: // plesiochronous: periods a few ps apart, so groups overtake each other
			p = clock.Plesiochronous(baseClk, "p", float64(rng.Intn(2001)-1000), 0).Period
		case 5: // clocks of Sleepers only, which stride, beside harmonics sharing their edges
			p = base * clock.Duration(1+rng.Intn(2))
		}
		ph := clock.Duration(rng.Int63n(int64(p)))
		if kind == 2 || kind == 5 || rng.Intn(4) == 0 {
			ph = clock.Duration(rng.Intn(2)) * base / 2
		}
		c.periods = append(c.periods, p)
		c.phases = append(c.phases, ph)
		c.hooked = append(c.hooked, rng.Intn(3))
	}
	nComp := nClk + rng.Intn(2*nClk)
	for i := 0; i < nComp; i++ {
		c.compClk = append(c.compClk, rng.Intn(nClk)) // some clocks may drive nothing
		c.sleepy = append(c.sleepy, rng.Intn(3) == 0)
	}
	if kind == 5 {
		// Every component of an even clock is a napper, and poking
		// recorders wake every Sleeper often, at edges those clocks share.
		for i, k := range c.compClk {
			c.sleepy[i] = c.sleepy[i] || k%2 == 0
		}
		c.pokeEvery = 3
	}
	end := clock.Time(40 * base)
	switch kind {
	case 3:
		end = clock.Time(80 * base) // long enough for a few ps a period to reorder phases
	case 4:
		end = clock.Time(2500 * base)
	}
	for i := rng.Intn(6); i > 0; i-- {
		m := schedMutation{at: clock.Time(rng.Int63n(int64(end))), clk: rng.Intn(nClk)}
		kinds := 3
		if kind == 5 {
			kinds = 5 // wakes twice as often as any other mutation
		}
		switch rng.Intn(kinds) {
		case 3, 4:
			m.wake = true
		case 0:
			m.newPeriod = c.periods[m.clk]/2 + clock.Duration(rng.Intn(1000)) + 1
		case 1:
			m.remove = rng.Intn(nComp)
		default:
			m.drive = 1 + rng.Intn(999)
		}
		if rng.Intn(3) == 0 {
			// Land exactly on an edge of the mutated clock.
			m.at = c.phases[m.clk] + clock.Time(1+rng.Intn(20))*c.periods[m.clk]
			if m.wake {
				m.at += clock.Time(rng.Intn(3) - 1) // or a picosecond either side
			}
		}
		c.mutations = append(c.mutations, m)
	}
	for t := clock.Time(0); t < end; {
		t += clock.Time(1 + rng.Int63n(int64(10*base)))
		if kind == 4 {
			t += clock.Time(rng.Int63n(int64(200 * base)))
		}
		if kind == 5 && rng.Intn(2) == 0 {
			// End the chunk on an edge, which a striding clock may skip.
			k := rng.Intn(nClk)
			t = c.phases[k] + (t-c.phases[k]+c.periods[k]-1)/c.periods[k]*c.periods[k]
		}
		c.chunks = append(c.chunks, t)
	}
	return c
}

// A hookCall is one run of a wire's intercept: the instant, the value it
// saw, and whether that instant drove it.
type hookCall struct {
	at     clock.Time
	v      int
	driven bool
}

// build instantiates the case on fresh clocks, wires, recorders and
// nappers. A wire's intercept logs every call, stamped by now, and adds
// 5000 to a driven value, which is what readers then see.
func (c schedCase) build(log *[]dispatch, now func() clock.Time) ([]*clock.Clock, []Component, []*Wire[int], [][]hookCall, func(i int)) {
	clks := make([]*clock.Clock, len(c.periods))
	wires := make([]*Wire[int], len(c.periods))
	calls := make([][]hookCall, len(c.periods))
	for i := range clks {
		clks[i] = clock.New("c", c.periods[i], c.phases[i])
		wires[i] = NewWire[int]("w")
	}
	hook := func(i int) {
		wires[i].SetIntercept(func(v int, driven bool) int {
			calls[i] = append(calls[i], hookCall{now(), v, driven})
			if driven {
				v += 5000
			}
			return v
		})
	}
	for i, h := range c.hooked {
		if h == 1 {
			hook(i)
		}
	}
	comps := make([]Component, len(c.compClk))
	for i, k := range c.compClk {
		if c.sleepy[i] {
			comps[i] = &napper{clk: clks[k], idx: i, log: log, long: c.long, short: c.short, rng: rand.New(rand.NewSource(int64(i)))}
		} else {
			comps[i] = &recorder{clk: clks[k], idx: i, log: log, out: wires[k], in: wires[(k+1)%len(wires)], pokeEvery: c.pokeEvery}
		}
	}
	return clks, comps, wires, calls, hook
}

// A schedRun is what one run of a case dispatched: the edges in order, the
// sum of each component's Skip counts, each component's edges so far
// (dispatched or skipped) as every mutation saw them, every intercept
// call per wire, and the first broken promise a napper saw.
type schedRun struct {
	log      []dispatch
	skipped  []int64
	atTimers [][]int64
	hooks    [][]hookCall
	bad      string
}

// accounted counts each component's edges so far, dispatched or skipped.
func (r *schedRun) accounted(comps []Component) []int64 {
	n := make([]int64, len(comps))
	for _, d := range r.log {
		n[d.idx]++
	}
	for i, c := range comps {
		if s, ok := c.(*napper); ok {
			n[i] += s.skipped
		}
	}
	return n
}

// runEngine drives the case through the real scheduler.
func (c schedCase) runEngine() schedRun {
	var run schedRun
	eng := New()
	clks, comps, wires, calls, hook := c.build(&run.log, eng.Now)
	for i, w := range wires {
		eng.AddWireClocked(w, clks[i])
	}
	// After a wake a Sleeper may have been changed, so no promise it made
	// before holds: a later Skip beyond the new promise of 0 is an edge
	// slept through after the wake.
	voidPromises := func() {
		for _, r := range comps {
			if n, ok := r.(*napper); ok {
				n.promise = 0
			}
		}
	}
	invalidated := clock.Time(-1)
	for _, r := range comps {
		eng.Add(r)
		if n, ok := r.(*napper); ok {
			n.invalidated = &invalidated
		}
		// Some components call Sync or invalidate the schedule from
		// inside Update, which wakes every Sleeper in the middle of
		// dispatch.
		if r, ok := r.(*recorder); ok && r.idx%4 >= 2 {
			wake := eng.Sync
			if r.idx%4 == 3 {
				wake = func() {
					eng.InvalidateSchedule()
					invalidated = eng.Now()
				}
			}
			r.poke = func() {
				wake()
				voidPromises()
			}
		}
	}
	for _, m := range c.mutations {
		eng.At(m.at, func() {
			run.atTimers = append(run.atTimers, run.accounted(comps))
			voidPromises()
			switch {
			case m.wake:
			case m.newPeriod > 0:
				clks[m.clk].Period = m.newPeriod
				eng.InvalidateSchedule()
			case m.drive > 0:
				wires[m.clk].Drive(m.drive)
			default:
				eng.Remove(comps[m.remove])
			}
		})
	}
	for k, until := range c.chunks {
		eng.Run(until)
		voidPromises() // Run returns with every Sleeper woken
		if k == 0 {
			for i, h := range c.hooked {
				if h == 2 {
					hook(i)
				}
			}
		}
	}
	run.skipped = make([]int64, len(comps))
	for i, r := range comps {
		if n, ok := r.(*napper); ok {
			run.skipped[i] = n.skipped
			if run.bad == "" && n.bad != "" {
				run.bad = fmt.Sprintf("component %d: %s", i, n.bad)
			}
		}
	}
	run.hooks = calls
	return run
}

// runOracle is the brute-force schedule: no ring, no groups, no cached next
// edges, no sleep, no commit bookkeeping. At every instant it asks each
// live component's clock whether it has an edge there, and finds the next
// instant by scanning all of them. It commits a wire at every edge of its
// clock, or at every instant while no live component runs on that clock.
func (c schedCase) runOracle() schedRun {
	var run schedRun
	var now clock.Time
	clks, comps, wires, calls, hook := c.build(&run.log, func() clock.Time { return now })
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
	hooked := false
	for {
		next := clock.Infinity
		for i, r := range comps {
			if live[i] {
				next = min(next, r.Clock().NextEdge(now))
			}
		}
		for _, m := range muts {
			if m.at > now {
				next = min(next, m.at)
			}
		}
		if next > end {
			run.hooks = calls
			return run
		}
		if !hooked && next > c.chunks[0] {
			hooked = true
			for i, h := range c.hooked {
				if h == 2 {
					hook(i)
				}
			}
		}
		now = next
		for _, m := range muts { // registration order at equal instants
			if m.at != now {
				continue
			}
			run.atTimers = append(run.atTimers, run.accounted(comps))
			switch {
			case m.wake:
			case m.newPeriod > 0:
				clks[m.clk].Period = m.newPeriod
			case m.drive > 0:
				wires[m.clk].Drive(m.drive)
			default:
				live[m.remove] = false
			}
		}
		ticking := make([]bool, len(clks))
		for i, r := range comps {
			if live[i] && r.Clock().NextEdge(now-1) == now {
				r.Update(now)
			}
			if live[i] {
				ticking[c.compClk[i]] = true
			}
		}
		for i, w := range wires {
			if !ticking[i] || clks[i].NextEdge(now-1) == now {
				w.commit()
			}
		}
	}
}

// TestSchedulerMatchesBruteForce: over random clock sets — equal periods,
// coprime periods, coincident edges, up to 60 plesiochronous clocks a few
// ps apart, Sleepers that sleep for hundreds of edges, clocks of Sleepers
// only that stride over promises of one to three edges beside long ones,
// with and without a hooked wire, mid-run period mutation with
// InvalidateSchedule, Remove from a callback, callbacks that only wake, on
// and between the edges a clock strides over, Sync and InvalidateSchedule
// from inside Update, also at an edge a striding clock skips, drives from
// a callback, wire intercepts installed before the first Run or after it,
// Run split into arbitrary chunks — the engine dispatches exactly the
// (time, add-index) sequence a scan of Clock.NextEdge over every component
// produces, less the edges Sleepers slept through: each of those is a
// Sleeper's, each Sleeper's Skip counts add up to its own, no Skip exceeds
// the promise in force, no Sleeper is dispatched before its promise runs
// out unless a wake cut it short, and every timer sees each component at
// the oracle's edge count.
// Every Update reads the wire value the oracle's does, and every intercept
// sees the calls, one per writer edge, the oracle's sees.
func TestSchedulerMatchesBruteForce(t *testing.T) {
	const trials = 1200
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < trials; trial++ {
		c := drawSchedCase(rng, trial%6)
		oracle := c.runOracle()
		for len(oracle.log) == 0 { // e.g. the only component removed before its first edge
			c = drawSchedCase(rng, trial%6)
			oracle = c.runOracle()
		}
		eng := c.runEngine()
		got, want := eng.log, oracle.log
		if eng.bad != "" {
			t.Fatalf("trial %d: %s", trial, eng.bad)
		}
		if !slices.EqualFunc(eng.hooks, oracle.hooks, slices.Equal) {
			t.Fatalf("trial %d (%+v): intercept calls per wire %v, oracle %v", trial, c, eng.hooks, oracle.hooks)
		}
		if !slices.EqualFunc(eng.atTimers, oracle.atTimers, slices.Equal) {
			t.Fatalf("trial %d: edges per component, dispatched or slept, when each timer ran %v, oracle %v",
				trial, eng.atTimers, oracle.atTimers)
		}
		// Drop from the oracle's sequence the edges the engine did not
		// dispatch, counting them per component.
		missed := make([]int64, len(c.compClk))
		kept := want[:0:0]
		for _, d := range want {
			if len(kept) < len(got) && got[len(kept)] == d {
				kept = append(kept, d)
				continue
			}
			if !c.sleepy[d.idx] {
				kept = append(kept, d) // not a Sleeper's: a real mismatch
				continue
			}
			missed[d.idx]++
		}
		if !slices.Equal(missed, eng.skipped) {
			t.Fatalf("trial %d: edges not dispatched per component %v, Skip counts %v", trial, missed, eng.skipped)
		}
		if want := kept; !slices.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("trial %d (%+v): %d engine dispatches, %d oracle; first difference at #%d: engine %v, oracle %v",
				trial, c, len(got), len(want), i, got[i:min(i+3, len(got))], want[i:min(i+3, len(want))])
		}
	}
}
