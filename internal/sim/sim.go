package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/clock"
	"repro/internal/trace"
)

// A Component is a clocked network element (router, NI, link pipeline
// stage, wrapper, traffic generator...).
type Component interface {
	// Name identifies the component in traces and error messages.
	Name() string
	// Clock returns the clock domain driving this component.
	Clock() *clock.Clock
	// Update is called at each rising edge of the component's clock, after
	// every due Sampler has sampled; the component computes its next state
	// and drives its outputs.
	Update(now clock.Time)
}

// A Sampler is a Component that reads wires. Sample is called first at
// each rising edge of its clock, before any Update of that instant; the
// component must read all its inputs there. A component with no inputs to
// read (a traffic generator, a wrapper on timestamp-visible channels) has
// no Sample, and the engine spends nothing on it in that phase.
type Sampler interface {
	Component
	Sample(now clock.Time)
}

// A Sleeper is a Component that can promise edges on which it would only
// advance counters. After each real Update the engine asks Idle how many of
// the clock's next edges are such edges, and skips exactly that many
// dispatches of the component; before the next real Update, and whenever
// anything outside edge dispatch may look at or mutate the component (a
// timer instant, Add, Remove, AddWire*, InvalidateSchedule, SetFastPath,
// Sync, a return from Run), it calls Skip with the number of edges skipped
// so far and cancels the rest of the sleep. Skip(n) must leave the
// component exactly as n Updates on those edges would have. Nothing sleeps
// while a fast path is installed, and a Sleeper may not also be a Sampler.
type Sleeper interface {
	Component
	// Idle returns how many of the clock's edges after now would only
	// advance counters; 0 keeps the component dispatched every edge.
	Idle(now clock.Time) int64
	// Skip advances the component over n edges it slept through.
	Skip(n int64)
}

// An Engine owns components and wires and advances simulated time. It
// keeps one schedule: the components grouped by clock, the groups in a
// ring sorted by next edge, and for each Sleeper the edges it may skip.
// Between calls to Run every Sleeper is awake, so a caller reading or
// mutating a component sees it as if it had been updated on every edge.
//
// An Engine is strictly single-goroutine: all methods must be called from
// one goroutine at a time. Concurrency lives one level up — package
// parallel fans independent configurations across workers, each owning a
// private Engine.
type Engine struct {
	components []Component
	wires      []AnyWire     // committed at every executed instant
	clocked    []clockedWire // committed only at their clock's edges
	now        clock.Time
	edges      int64 // total component-edges executed, slept ones included

	// Edge schedule: components grouped by clock, and a ring of the groups
	// sorted by each clock's next edge, starting at ring[head]. Rebuilt
	// lazily whenever the component set or a clock definition changes
	// (dirty).
	groups  []*clockGroup
	ring    []ringEntry
	head    int
	orphans []AnyWire // clocked wires whose clock drives no component
	dirty   bool

	// Sleep state of each component, by add index; asleep is set while
	// any Sleeper has skipped or will skip an edge.
	sleeps []sleepState
	asleep bool

	// Scratch buffers for Run's per-instant edge dispatch, hoisted here so
	// steady-state simulation performs zero allocations per instant.
	due        []indexedComp
	dueSampled []indexedSampler
	dueGroups  []*clockGroup

	// Scheduled callbacks, fired at exact picosecond instants (fault
	// injection, reconfiguration). Min-heap on (at, seq).
	timers   []timerEntry
	timerSeq int64

	// tracer, when non-nil, is the typed event bus components emit their
	// flit-lifecycle events on. The engine itself emits nothing — the
	// exact-time edges it dispatches are the timestamps components stamp
	// onto their events — but owning the bus here gives drivers one place
	// to find it.
	tracer *trace.Bus

	// fast, when non-nil, is a compiled fast path (package replay) that
	// may consume whole stretches of the schedule without per-instant
	// dispatch. resim guards re-entrant cycle-accurate execution while the
	// fast path materialises state (Resimulate).
	fast  FastPath
	resim bool

	// timersRun counts executed scheduled callbacks; a fast path compares
	// it across a candidate period to prove the stretch was undisturbed.
	timersRun int64
}

// A FastPath can take over the engine's main loop for stretches of
// simulated time whose schedule it has proven periodic (package replay).
// The engine consults it at the top of every Run iteration and reports
// every cycle-accurately executed instant to Observe.
type FastPath interface {
	// Step offers the fast path the window (Engine.Now(), until]. It
	// returns Done=true when the whole window was consumed (the engine
	// then returns from Run), and Done=false to hand control back to the
	// cycle-accurate loop — either because the fast path is not engaged,
	// or because it deoptimised (materialised real state) at a hazard such
	// as a pending timer. Now/Edges/Instants report the progress made.
	Step(until clock.Time) FastResult
	// Observe reports one cycle-accurately executed instant: its time and
	// how many component edges fired.
	Observe(now clock.Time, edges int)
	// Invalidated reports a structural mutation (component or wire added
	// or removed, clock schedule invalidated). It is called before the
	// mutation takes effect, so an engaged fast path can materialise the
	// pre-mutation state.
	Invalidated()
	// Sync materialises any fast-forwarded state so that every component,
	// wire and statistic reads as if the run had been cycle-accurate all
	// along. Callers must invoke Engine.Sync before inspecting state.
	Sync()
}

// A FastResult reports the progress a FastPath.Step call made.
type FastResult struct {
	Now      clock.Time // simulation time reached (<= until)
	Edges    int64      // component edges accounted for
	Instants int        // distinct instants consumed
	Done     bool       // whole window consumed; Run returns
}

// A clockGroup holds every component driven by one clock, in add order,
// plus the wires written from that domain: commits are batched per clock
// group, so an instant only touches the wires a due domain can have driven.
type clockGroup struct {
	clk      *clock.Clock
	comps    []indexedComp
	samplers []indexedSampler // the comps that have a Sample, same order
	wires    []AnyWire
}

// A ringEntry is one clock group's place in the schedule: its cached next
// edge, strictly after the last dispatch, and its clock's period.
type ringEntry struct {
	next   clock.Time
	period clock.Duration
	g      *clockGroup
}

// sleepState counts a Sleeper's edges: left still to skip, and slept
// already skipped but not yet passed to Skip.
type sleepState struct {
	left, slept int64
}

// A clockedWire associates a wire with the clock domain of its
// writer, for commit batching.
type clockedWire struct {
	w   AnyWire
	clk *clock.Clock
}

// indexedComp remembers a component's global add index so coincident
// edges of different clocks still execute in add order (stable traces).
type indexedComp struct {
	c   Component
	sl  Sleeper // c as a Sleeper, or nil
	idx int
}

type indexedSampler struct {
	s   Sampler
	idx int
}

type timerEntry struct {
	at  clock.Time
	seq int64
	f   func()
}

// New returns an empty engine at time zero.
func New() *Engine { return &Engine{} }

// Add registers a component with the engine. Components execute in the
// order they were added when their edges coincide; the two-phase schedule
// makes the result independent of that order, but keeping it fixed makes
// traces stable.
func (e *Engine) Add(c Component) {
	if c.Clock() == nil {
		panic(fmt.Sprintf("sim: component %q has no clock", c.Name()))
	}
	e.invalidateFast()
	e.components = append(e.components, c)
	e.dirty = true
}

// Remove unregisters a component (reconfiguration close). It reports
// whether the component was found. Clocked wires whose domain loses its
// last component fall back to committing at every instant from the next
// rebuild on, so pending drives are never lost (see AddWireClocked).
func (e *Engine) Remove(c Component) bool {
	for i, have := range e.components {
		if have == c {
			e.invalidateFast()
			e.components = append(e.components[:i], e.components[i+1:]...)
			e.dirty = true
			return true
		}
	}
	return false
}

// At schedules f to run at the exact instant t, before any component edges
// at that instant (and regardless of whether any clock has an edge there).
// Callbacks at the same instant run in registration order. A time at or
// before the current instant fires at the next executed instant; the
// returned time is the instant the callback will actually fire at, so a
// caller scheduling "at the current instant" can detect the one-instant
// drift instead of silently producing a shifted reconfiguration. Scheduled
// callbacks may mutate clocks; call InvalidateSchedule afterwards so the
// engine recomputes its edge schedule.
func (e *Engine) At(t clock.Time, f func()) clock.Time {
	if t <= e.now {
		t = e.now + 1
	}
	e.timers = append(e.timers, timerEntry{at: t, seq: e.timerSeq, f: f})
	e.timerSeq++
	timerUp(e.timers, len(e.timers)-1)
	return t
}

// InvalidateSchedule tells the engine that a clock's period or phase was
// mutated (fault injection models drift and jitter this way) so cached
// next-edge times must be recomputed before the next dispatch.
func (e *Engine) InvalidateSchedule() {
	e.invalidateFast()
	e.dirty = true
}

// invalidateFast tells the fast path the schedule or element set is about
// to change, before the change lands.
func (e *Engine) invalidateFast() {
	e.wake()
	if e.fast != nil {
		e.fast.Invalidated()
	}
}

// AddWire registers a wire, which is then committed at every executed
// instant. Only things whose commit does work belong here: a Bisync or a
// TokenChannel becomes visible by timestamp and is registered with nobody.
// Prefer AddWireClocked when the wire's writer lives in a known clock
// domain: per-instant cost then scales with the due domains, not with the
// total wire count.
func (e *Engine) AddWire(w AnyWire) {
	e.invalidateFast()
	e.wires = append(e.wires, w)
}

// AddWireClocked registers a wire whose writer is clocked by clk: the wire
// is committed only at clk's edges, batching commit work per clock group.
// This is always legal for register-transfer wires, because a wire can
// only acquire a pending drive during an Update of its writer — i.e. at a
// clk edge — and commit is a no-op at every other instant. Two behaviours
// shift relative to AddWire, both toward the hardware semantics: a
// commit-time intercept (fault injection) observes the wire once per
// writer-clock cycle instead of once per engine instant, and a drive
// issued from an At callback becomes visible at the wire's next clk edge
// rather than at the next instant of any clock.
//
// If clk never acquires components, the wire falls back to committing at
// every instant so drives are never lost.
func (e *Engine) AddWireClocked(w AnyWire, clk *clock.Clock) {
	if clk == nil {
		e.AddWire(w)
		return
	}
	e.invalidateFast()
	e.clocked = append(e.clocked, clockedWire{w: w, clk: clk})
	e.dirty = true
}

// SetFastPath installs (or, with nil, removes) a compiled fast path. The
// engine consults it at the top of every Run iteration; see FastPath.
func (e *Engine) SetFastPath(f FastPath) {
	e.wake()
	e.fast = f
}

// Sync materialises any state the installed fast path has fast-forwarded,
// so components, wires and statistics read as if the run had been
// cycle-accurate throughout. It is a no-op without a fast path. A caller
// syncs to read or change state, so after any Sync the fast path starts
// afresh: the next executed instant re-anchors its epoch, whether or not
// it was replaying.
func (e *Engine) Sync() {
	e.wake()
	if e.fast != nil {
		e.fast.Sync()
	}
}

// ResumeAt rewinds (or advances) the engine's clock to t and marks the
// schedule dirty. It is the resume half of the fast path's deopt seam: a
// materialising fast path shifts component state to a known boundary
// instant, calls ResumeAt(boundary), and then Resimulate to replay the
// residual instants cycle-accurately. General code should never call it.
func (e *Engine) ResumeAt(t clock.Time) {
	e.now = t
	e.dirty = true
}

// Resimulate runs the cycle-accurate loop up to and including until,
// bypassing the fast path. The caller (a materialising fast path) must
// guarantee no timer is pending at or before until. The edge counter is
// preserved: resimulated instants re-execute work the fast path already
// accounted for when it replayed them.
func (e *Engine) Resimulate(until clock.Time) int {
	e.resim = true
	edges := e.edges
	defer func() {
		e.resim = false
		e.edges = edges
	}()
	return e.Run(until)
}

// NextTimer returns the earliest pending scheduled-callback instant.
func (e *Engine) NextTimer() (clock.Time, bool) {
	if len(e.timers) == 0 {
		return 0, false
	}
	return e.timers[0].at, true
}

// TimersRun returns the number of scheduled callbacks executed so far.
func (e *Engine) TimersRun() int64 { return e.timersRun }

// AddOrder returns the registered components in add order — the order
// coincident edges dispatch in. The caller must not mutate the slice.
func (e *Engine) AddOrder() []Component { return e.components }

// Wires returns every registered wire: the AddWire ones first, then the
// AddWireClocked ones, each in registration order. The replay fast path
// fingerprints them.
func (e *Engine) Wires() []AnyWire {
	ws := slices.Clone(e.wires)
	for _, cw := range e.clocked {
		ws = append(ws, cw.w)
	}
	return ws
}

// Now returns the current simulation time.
func (e *Engine) Now() clock.Time { return e.now }

// Edges returns the total number of component edges executed so far. It is
// a useful work metric for benchmarks.
func (e *Engine) Edges() int64 { return e.edges }

// SetTracer installs the typed trace event bus; nil disables tracing.
// It replaces the historical stringly SetTrace(func(string)) hook: events
// are now typed trace.Event values with exact picosecond timestamps.
func (e *Engine) SetTracer(b *trace.Bus) { e.tracer = b }

// Tracer returns the installed event bus, or nil when tracing is off.
func (e *Engine) Tracer() *trace.Bus { return e.tracer }

// AnyWire is a registered wire of any value type, as AddWire takes it and
// Wires lists it. Only a *Wire[T] implements it; a caller recovers T with a
// type switch.
type AnyWire interface {
	Name() string
	commit()
}

// wake ends every sleep: each Sleeper is passed the edges it has skipped
// and is dispatched again from its next edge on.
func (e *Engine) wake() {
	if !e.asleep {
		return
	}
	for _, g := range e.groups {
		for _, c := range g.comps {
			if st := &e.sleeps[c.idx]; st.slept > 0 {
				c.sl.Skip(st.slept)
			}
		}
	}
	clear(e.sleeps)
	e.asleep = false
}

// rebuild regroups components by clock, attaches each clocked wire to its
// writer's group, and recomputes every group's next edge strictly after
// the instant from.
func (e *Engine) rebuild(from clock.Time) {
	e.wake()
	byClk := make(map[*clock.Clock]*clockGroup, len(e.groups)+1)
	e.groups = e.groups[:0]
	for i, c := range e.components {
		g := byClk[c.Clock()]
		if g == nil {
			g = &clockGroup{clk: c.Clock()}
			byClk[c.Clock()] = g
			e.groups = append(e.groups, g)
		}
		ic := indexedComp{c: c, idx: i}
		if s, ok := c.(Sampler); ok {
			g.samplers = append(g.samplers, indexedSampler{s: s, idx: i})
		}
		if sl, ok := c.(Sleeper); ok {
			if _, ok := c.(Sampler); ok {
				panic(fmt.Sprintf("sim: component %q is both a Sleeper and a Sampler", c.Name()))
			}
			ic.sl = sl
		}
		g.comps = append(g.comps, ic)
	}
	e.sleeps = slices.Grow(e.sleeps[:0], len(e.components))[:len(e.components)]
	clear(e.sleeps)
	e.orphans = e.orphans[:0]
	for _, cw := range e.clocked {
		if g := byClk[cw.clk]; g != nil {
			g.wires = append(g.wires, cw.w)
		} else {
			// No component ticks this clock, so its edges never execute;
			// commit every instant instead of never.
			e.orphans = append(e.orphans, cw.w)
		}
	}
	e.ring, e.head = e.ring[:0], 0
	for _, g := range e.groups {
		e.ring = append(e.ring, ringEntry{next: g.clk.NextEdge(from), period: g.clk.Period, g: g})
	}
	slices.SortStableFunc(e.ring, func(a, b ringEntry) int { return cmp.Compare(a.next, b.next) })
	e.dirty = false
}

// Run advances the simulation until (and including) all edges at times
// <= until. It returns the number of distinct instants executed.
//
// Instead of rescanning every component per instant, the engine keeps the
// components grouped by clock in a ring sorted by each clock's next edge:
// the due group is the ring's head, and advancing it moves it to the tail
// and back past any group whose edge is strictly later, which with equal
// periods is none. The per-instant cost scales with the number of due
// clock domains, not with the total component count, and no instant
// divides. A Sleeper's promised idle edges are counted, not dispatched.
// Wire commits are batched per group (see AddWireClocked), the common
// single-domain instant dispatches a group's components in place without
// copying, and the dispatch scratch lives on the Engine, so steady-state
// instants allocate nothing. Every Sleeper is awake when Run returns.
func (e *Engine) Run(until clock.Time) int {
	instants := 0
	for {
		if e.dirty {
			e.rebuild(e.now)
		}
		if e.fast != nil && !e.resim {
			res := e.fast.Step(until)
			instants += res.Instants
			e.edges += res.Edges
			if res.Now > e.now {
				e.now = res.Now
			}
			if res.Done {
				e.wake()
				return instants
			}
			if e.dirty {
				e.rebuild(e.now)
			}
		}
		next := clock.Infinity
		if len(e.ring) > 0 {
			next = e.ring[e.head].next
		}
		if len(e.timers) > 0 && e.timers[0].at < next {
			next = e.timers[0].at
		}
		if next == clock.Infinity || next > until {
			e.now = until
			e.wake()
			return instants
		}
		e.now = next

		// Scheduled callbacks run first at their instant, on awake
		// components. They may mutate clocks; rebuild then re-derives the
		// schedule so that unchanged clocks due exactly at this instant
		// still fire, and edges a mutation would place in the past round
		// up to now.
		ranTimer := false
		if len(e.timers) > 0 && e.timers[0].at <= next {
			e.wake()
		}
		for len(e.timers) > 0 && e.timers[0].at <= next {
			t := e.timers[0]
			n := len(e.timers) - 1
			e.timers[0] = e.timers[n]
			e.timers = e.timers[:n]
			timerDown(e.timers, 0)
			t.f()
			e.timersRun++
			ranTimer = true
		}
		if ranTimer && e.dirty {
			e.rebuild(next - 1)
		}

		// Every group due here is at the ring's head in turn. Its cached
		// edge is an exact edge of its clock (rebuild is the only place that
		// derives one from phase and period), so the edge after it is one
		// period on. The head's slot becomes the tail, and the group walks
		// back from there past every group strictly later than its new edge.
		dueGroups := e.dueGroups[:0]
		for n := len(e.ring); n > 0 && e.ring[e.head].next <= next; {
			r := e.ring[e.head]
			dueGroups = append(dueGroups, r.g)
			r.next += r.period
			i := e.head
			if e.head++; e.head == n {
				e.head = 0
			}
			for i != e.head {
				p := i - 1
				if p < 0 {
					p = n - 1
				}
				if e.ring[p].next <= r.next {
					break
				}
				e.ring[i] = e.ring[p]
				i = p
			}
			e.ring[i] = r
		}
		e.dueGroups = dueGroups

		// Edge dispatch. The overwhelmingly common instant has exactly one
		// due clock domain (every mesochronous tile edge, every instant of
		// a purely synchronous run): dispatch that group's components in
		// place, with no copy and no sort. Coincident edges of different
		// domains fall back to merging into the scratch slice and sorting
		// by add index, so cross-domain traces stay in add order.
		due, sampled := e.due[:0], e.dueSampled[:0]
		switch len(dueGroups) {
		case 0:
		case 1:
			due, sampled = dueGroups[0].comps, dueGroups[0].samplers
		default:
			for _, g := range dueGroups {
				due = append(due, g.comps...)
				sampled = append(sampled, g.samplers...)
			}
			e.due, e.dueSampled = due, sampled
			slices.SortFunc(due, func(a, b indexedComp) int { return a.idx - b.idx })
			slices.SortFunc(sampled, func(a, b indexedSampler) int { return a.idx - b.idx })
		}
		for _, s := range sampled {
			s.s.Sample(next)
		}
		if e.fast != nil {
			for _, c := range due { // nothing sleeps under a fast path
				c.c.Update(next)
			}
		} else {
			e.updateAwake(due, next)
		}

		// Commit phase: the due domains' own wires, then the wires that
		// commit at every instant. Wires of undisturbed domains cannot
		// hold a pending drive, so skipping them is observation-free.
		for _, g := range dueGroups {
			for _, w := range g.wires {
				w.commit()
			}
		}
		for _, w := range e.wires {
			w.commit()
		}
		for _, w := range e.orphans {
			w.commit()
		}
		e.edges += int64(len(due))
		instants++
		if e.fast != nil && !e.resim {
			e.fast.Observe(next, len(due))
		}
	}
}

// updateAwake dispatches the due components at now, except that a sleeping
// Sleeper only counts the edge, and a waking one is first passed the
// edges it slept through and afterwards asked for its next sleep.
func (e *Engine) updateAwake(due []indexedComp, now clock.Time) {
	for _, c := range due {
		if c.sl == nil {
			c.c.Update(now)
			continue
		}
		st := &e.sleeps[c.idx]
		if st.left > 0 {
			st.left--
			st.slept++
			continue
		}
		if st.slept > 0 {
			c.sl.Skip(st.slept)
			st.slept = 0
		}
		c.c.Update(now)
		if e.fast == nil { // an Update may install one
			if st.left = c.sl.Idle(now); st.left > 0 {
				e.asleep = true
			}
		}
	}
}

// timerUp/timerDown maintain the callback min-heap on (at, seq).
func timerLess(a, b timerEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func timerUp(h []timerEntry, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !timerLess(h[i], h[p]) {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func timerDown(h []timerEntry, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && timerLess(h[l], h[m]) {
			m = l
		}
		if r < len(h) && timerLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// RunCycles advances a purely synchronous simulation by n edges of the
// given clock. It is a convenience wrapper over Run.
func (e *Engine) RunCycles(c *clock.Clock, n int64) {
	if n <= 0 {
		return
	}
	start := c.NextEdge(e.now)
	e.Run(start + clock.Time(n-1)*c.Period)
}

// Components returns the registered components sorted by name; useful for
// diagnostics.
func (e *Engine) Components() []Component {
	out := append([]Component(nil), e.components...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}
