package sim

import (
	"cmp"
	"fmt"
	"math"
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
	// Update is called at each rising edge of the component's clock; the
	// component reads its input wires, computes its next state and drives
	// its outputs. A wire holds the value committed before this instant
	// through the whole Update phase, so every reader of the instant sees
	// the same value whatever the dispatch order.
	Update(now clock.Time)
}

// A Sleeper is a Component that can promise edges on which it would only
// advance counters. After each real Update the engine asks Idle how many of
// the clock's next edges are such edges, and dispatches the component
// again only at the edge after them. Before that Update, and whenever
// anything outside edge dispatch may look at or mutate the component (a
// timer instant, Add, Remove, AddWire*, InvalidateSchedule, SetFastPath,
// Sync, a return from Run), the engine calls Skip with the number of edges
// skipped so far and cancels the rest of the sleep. Skip(n) must leave the
// component exactly as n Updates on those edges would have, so a Sleeper's
// skipped edges read no wire. Nothing sleeps while a fast path is
// installed.
//
// The stride rule: when every component of a clock is a Sleeper and each
// has promised idle edges after the clock's current edge, the engine does
// not execute the clock's next edges at all: the clock strides straight to
// the first edge a component wakes at, and each component is passed its
// skipped edges there, or at a wake. A clock with a wire that has an
// intercept, which must see every edge, never strides; nor does any clock
// while a wire committed at every instant has one, or while a fast path is
// installed.
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
// ring sorted by next needed edge, and for each Sleeper the edges it may
// skip.
// Between calls to Run every Sleeper is awake, so a caller reading or
// mutating a component sees it as if it had been updated on every edge.
//
// An Engine is strictly single-goroutine: all methods must be called from
// one goroutine at a time. Concurrency lives one level up — package
// parallel fans independent configurations across workers, each owning a
// private Engine.
type Engine struct {
	// The fields every executed instant reads lead, on four cache lines.
	now        clock.Time
	edges      int64 // total component-edges executed, slept ones included
	dispatched int64 // Update calls made

	// Edge schedule: components grouped by clock, and a ring of the groups
	// sorted by each clock's next needed edge, starting at ring[head].
	// Rebuilt lazily whenever the component set or a clock definition
	// changes (dirty).
	ring []ringEntry
	head int
	// asleep is set while any Sleeper has skipped or will skip an edge;
	// woke records that a wake ran inside an Update (see dispatch); resim
	// guards re-entrant cycle-accurate execution while the fast path
	// materialises state (Resimulate).
	dirty, asleep, woke, resim bool

	// While an instant dispatches, cursor is the add index of the
	// component whose Update runs (-1 outside dispatch), and dueGroups the
	// groups due.
	cursor    int
	dueGroups []*clockGroup

	// Scheduled callbacks, fired at exact picosecond instants (fault
	// injection, reconfiguration). Min-heap on (at, seq).
	timers []timerEntry

	// tracer, when non-nil, is the typed event bus components emit their
	// flit-lifecycle events on. The engine itself emits nothing — the
	// exact-time edges it dispatches are the timestamps components stamp
	// onto their events — but owning the bus here gives drivers one place
	// to find it, and the engine drains it before every timer callback
	// and before Run returns (see trace.Bus.Drain).
	tracer *trace.Bus

	// fast, when non-nil, is a compiled fast path (package replay) that
	// may consume whole stretches of the schedule without per-instant
	// dispatch.
	fast FastPath

	wires   []AnyWire // committed at every executed instant
	orphans []AnyWire // clocked wires whose clock drives no component
	// every is the commit state of the wires committed at every instant
	// (AddWire's and the orphans): an intercept there sees every executed
	// instant, so while it has one no group strides.
	every wireSet

	components []Component
	clocked    []clockedWire // committed only at their clock's edges
	groups     []*clockGroup

	// Scratch buffers for dispatch, hoisted here so steady-state
	// simulation performs zero allocations per instant.
	wakers []indexedComp
	heads  []int

	timerSeq int64

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
// group, so an instant only touches the wires a due domain can have driven,
// and only if one of them was driven or has an intercept.
//
// A Sleeper that promises idle edges leaves active, the dispatch list, and
// waits in cal, the group's wake calendar, for the edge it wakes at: a
// sleeping component costs nothing per edge. In a group of Sleepers only,
// a Sleeper whose wake edge is no later than any other kept at the same
// edge stays in active instead, passed over until its wake edge; and when
// every member sleeps, the group strides to the first wake edge, so the
// edges between cost no instant either.
type clockGroup struct {
	// The fields an edge of the group reads, on one cache line.
	active []indexedComp // the comps not in the calendar, add order
	// edge is the group's edges accounted since the last rebuild, counted
	// only when there are Sleepers.
	edge int64
	// short is the earliest wake edge of a Sleeper kept in active at the
	// current edge, or 0 once a member dispatched there promised no idle
	// edge; calHead is the calendar's earliest wake edge. The group's ring
	// advance strides on them.
	short, calHead int64
	// stride is how many edges on from edge the group's ring entry lies:
	// 1, or more while the group strides. size is len(comps).
	stride, size int32
	// leaving is the lowest add index that went to the calendar at the
	// current instant, or -1: active is compacted from there after
	// dispatch.
	leaving int32
	// sleepy is set when some component is a Sleeper, strides when every
	// one is (only such a group keeps Sleepers in active and strides),
	// and wired when some wire commits with the group.
	sleepy, strides, wired bool

	comps []indexedComp // every component of the clock, add order
	cal   []wakeEntry   // the comps in the calendar: a min-heap on (edge, idx)
	set   wireSet
	wires []AnyWire
	clk   *clock.Clock
	_     [16]byte // 192 bytes, a size class of whole cache lines
}

// A wakeEntry is a sleeping component in its group's wake calendar: edge
// is the group edge (counted as clockGroup.edge) at which it is dispatched
// again, since the group edge of its last Update, and pos its place in the
// group's comps.
type wakeEntry struct {
	edge, since int64
	pos         int
}

// A ringEntry is one clock group's place in the schedule: its cached next
// edge, strictly after the last dispatch, its clock's period and the
// group's index in Engine.groups. The entry holds no pointer, so moving
// it while a garbage collection marks costs no write barrier.
type ringEntry struct {
	next   clock.Time
	period clock.Duration
	g      int32
}

// A clockedWire associates a wire with the clock domain of its
// writer, for commit batching.
type clockedWire struct {
	w   AnyWire
	clk *clock.Clock
}

// indexedComp remembers a component's global add index so coincident
// edges of different clocks still execute in add order (stable traces),
// and its place in its group's comps. In the group's dispatch list it
// also holds a Sleeper's sleep: wake is the group edge it is dispatched at
// again (0 while it is awake, -1 once it has left for the calendar), and
// since the group edge of its last Update.
type indexedComp struct {
	c           Component
	sl          Sleeper // c as a Sleeper, or nil
	idx, pos    int
	since, wake int64
}

type timerEntry struct {
	at  clock.Time
	seq int64
	f   func()
}

// New returns an empty engine at time zero.
func New() *Engine { return &Engine{cursor: -1} }

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
	siftUp(e.timers, len(e.timers)-1, timerLess)
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
	w.bind(&e.every)
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

// Edges returns the total number of component edges executed so far,
// whether dispatched, slept through or replayed. It is a useful work metric
// for benchmarks.
func (e *Engine) Edges() int64 { return e.edges }

// Dispatched returns the number of Update calls made so far: Edges less
// the edges Sleepers slept through and the fast path replayed, plus the
// edges a fast path resimulated.
func (e *Engine) Dispatched() int64 { return e.dispatched }

// SetTracer installs the typed trace event bus; nil disables tracing.
// It replaces the historical stringly SetTrace(func(string)) hook: events
// are now typed trace.Event values with exact picosecond timestamps.
// The bus it replaces is drained.
func (e *Engine) SetTracer(b *trace.Bus) {
	if b != e.tracer {
		e.tracer.Drain()
	}
	e.tracer = b
}

// drain brings the tracer's deferred sinks up to date as Run returns, so
// whatever reads them, or the collector an auditor reports to, sees the
// whole run. A resimulation inside the fast path is not a return to the
// caller and leaves the worker running.
func (e *Engine) drain() {
	if !e.resim {
		e.tracer.Drain()
	}
}

// Tracer returns the installed event bus, or nil when tracing is off.
func (e *Engine) Tracer() *trace.Bus { return e.tracer }

// AnyWire is a registered wire of any value type, as AddWire takes it and
// Wires lists it. Only a *Wire[T] implements it; a caller recovers T with a
// type switch.
type AnyWire interface {
	Name() string
	commit()
	bind(s *wireSet)
}

// wake ends every sleep: each Sleeper is passed the edges it has skipped
// and is dispatched again from its next edge on. Inside dispatch, a
// sleeping component of a due group that comes after the running one has
// not yet skipped the current edge: the rest of the instant dispatches it
// (see dispatch).
func (e *Engine) wake() { e.wakeThrough(e.now) }

// wakeThrough is wake when the edges at or before t have passed. A group
// that strides accounts its skipped edges up to t and is put back in the
// ring at its next edge; inside dispatch that is t = now-1, and a group
// that skipped an edge at now joins the instant's due groups.
func (e *Engine) wakeThrough(t clock.Time) {
	if !e.asleep {
		return
	}
	inside := e.cursor >= 0
	if inside {
		t = e.now - 1
	}
	strided := false
	for i := range e.ring {
		r := &e.ring[i]
		g := e.groups[r.g]
		if g.stride == 1 {
			continue
		}
		last := r.next - clock.Time(g.stride)*r.period // its last dispatched edge
		var n int64
		if t >= last {
			n = int64((t - last) / r.period)
		}
		r.next = last + clock.Time(n+1)*r.period
		if inside && r.next == e.now {
			n++ // an edge at now: the rest of the instant dispatches it
			e.dueGroups = append(e.dueGroups, g)
		}
		g.edge += n
		e.edges += n * int64(g.size)
		g.stride = 1
		strided = true
	}
	if strided {
		// Rotate the ring to start at its head, then re-sort it.
		slices.Reverse(e.ring[:e.head])
		slices.Reverse(e.ring[e.head:])
		slices.Reverse(e.ring)
		e.head = 0
		slices.SortStableFunc(e.ring, func(a, b ringEntry) int { return cmp.Compare(a.next, b.next) })
	}
	for _, g := range e.groups {
		due := inside && slices.Contains(e.dueGroups, g)
		skip := func(c *indexedComp, since int64) {
			n := g.edge - since
			if due && c.idx > e.cursor {
				n--
			}
			if n > 0 {
				c.sl.Skip(n)
			}
		}
		for i := range g.active {
			if c := &g.active[i]; c.wake > 0 {
				skip(c, c.since)
			}
		}
		for _, w := range g.cal {
			skip(&g.comps[w.pos], w.since)
		}
		g.active = append(g.active[:0], g.comps...)
		g.cal, g.calHead = g.cal[:0], math.MaxInt64
		g.short = 0 // nothing strides at the rest of an instant
	}
	e.asleep = false
	if inside {
		e.woke = true
	}
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
		ic := indexedComp{c: c, idx: i, pos: len(g.comps)}
		ic.sl, _ = c.(Sleeper)
		g.comps = append(g.comps, ic)
	}
	for _, g := range e.groups {
		g.active = append(make([]indexedComp, 0, len(g.comps)), g.comps...)
		g.leaving, g.stride, g.calHead = -1, 1, math.MaxInt64
		g.size = int32(len(g.comps))
		g.strides = true
		for _, c := range g.comps {
			g.sleepy = g.sleepy || c.sl != nil
			g.strides = g.strides && c.sl != nil
		}
	}
	e.orphans = e.orphans[:0]
	for _, w := range e.wires {
		w.bind(&e.every)
	}
	for _, cw := range e.clocked {
		if g := byClk[cw.clk]; g != nil {
			g.wires, g.wired = append(g.wires, cw.w), true
			cw.w.bind(&g.set)
		} else {
			// No component ticks this clock, so its edges never execute;
			// commit every instant instead of never.
			e.orphans = append(e.orphans, cw.w)
			cw.w.bind(&e.every)
		}
	}
	e.ring, e.head = e.ring[:0], 0
	for i, g := range e.groups {
		e.ring = append(e.ring, ringEntry{next: g.clk.NextEdge(from), period: g.clk.Period, g: int32(i)})
	}
	slices.SortStableFunc(e.ring, func(a, b ringEntry) int { return cmp.Compare(a.next, b.next) })
	e.dirty = false
}

// Run advances the simulation until (and including) all edges at times
// <= until. It returns the number of distinct instants executed.
//
// Instead of rescanning every component per instant, the engine keeps the
// components grouped by clock in a ring sorted by each clock's next needed
// edge: the due group is the ring's head, and advancing it after its
// dispatch moves it to the tail and back past any group whose edge is
// strictly later, which with equal periods and strides is none. The
// per-instant cost scales with the number of due clock domains, not with
// the total component count, and no instant divides. A Sleeper's promised
// idle edges are counted, not dispatched, and a clock strides over the
// edges on which all its components sleep (see Sleeper): the advance puts
// it at the first edge one of them wakes at, so those edges cost no
// instant. Wire commits are batched per group (see AddWireClocked), each
// group's dispatch list is walked in place, and the dispatch scratch lives
// on the Engine, so steady-state instants allocate nothing. Every Sleeper
// is awake when Run returns.
//
// Once the run has covered queueSpan, each executed instant lets the
// tracer queue events for its deferred sinks (trace.Bus.Queue), again
// after any drain; Run drains it before it returns.
func (e *Engine) Run(until clock.Time) int {
	instants := 0
	queueAt := e.now + queueSpan
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
				e.drain()
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
			e.drain()
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
			e.wakeThrough(next - 1)
			e.tracer.Drain()
		}
		for len(e.timers) > 0 && e.timers[0].at <= next {
			t := e.timers[0]
			n := len(e.timers) - 1
			e.timers[0] = e.timers[n]
			e.timers = e.timers[:n]
			siftDown(e.timers, 0, timerLess)
			t.f()
			e.timersRun++
			ranTimer = true
		}
		if ranTimer && e.dirty {
			e.rebuild(next - 1)
		}

		// Every group due here is at the ring's head in turn. Each counts
		// its edge, and any edges it strode over, and takes back the
		// Sleepers its calendar wakes here.
		dueGroups := e.dueGroups[:0]
		edges, plain := 0, !e.asleep
		for i, n := e.head, len(e.ring); len(dueGroups) < n && e.ring[i].next <= next; {
			g := e.groups[e.ring[i].g]
			if i++; i == n {
				i = 0
			}
			dueGroups = append(dueGroups, g)
			edges += int(g.size) * int(g.stride)
			if g.sleepy && e.fast == nil {
				plain = false
				g.edge += int64(g.stride)
				g.stride, g.short = 1, math.MaxInt64
				if g.calHead == g.edge {
					e.wakeDue(g)
				}
			}
		}
		e.dueGroups = dueGroups

		// Edge dispatch. The overwhelmingly common instant has exactly one
		// due clock domain (every mesochronous tile edge, every instant of
		// a purely synchronous run): its active components are dispatched
		// in place. Coincident edges of different domains merge the groups'
		// lists by add index, so cross-domain traces stay in add order.
		// With nothing asleep and no Sleeper due that may sleep (none may
		// while a fast path is installed), nothing can fall asleep or wake
		// at this instant: one due group's components are just updated.
		if plain && len(dueGroups) == 1 {
			due := dueGroups[0].active
			for i := range due {
				due[i].c.Update(next)
			}
			e.dispatched += int64(len(due))
		} else if len(dueGroups) > 0 {
			e.dispatch(next, -1)
			e.cursor = -1
			dueGroups = e.dueGroups // a wake inside dispatch may add some
		}

		// Commit phase: the due domains' own wires, then the wires that
		// commit at every instant. A domain commits only the wires driven
		// since its last commit, unless one of its wires has an intercept,
		// which must see every edge.
		for _, g := range dueGroups {
			if g.leaving >= 0 {
				g.compact()
			}
			switch {
			case !g.wired:
				continue
			case g.set.hooks > 0:
				for _, w := range g.wires {
					w.commit()
				}
			case len(g.set.driven) == 0:
				continue
			default:
				for _, w := range g.set.driven {
					w.commit()
				}
			}
			g.set.driven = g.set.driven[:0]
		}
		for _, w := range e.wires {
			w.commit()
		}
		for _, w := range e.orphans {
			w.commit()
		}
		e.every.driven = e.every.driven[:0]
		e.advance(len(dueGroups))
		e.edges += int64(edges)
		instants++
		if e.fast != nil && !e.resim {
			e.fast.Observe(next, edges)
		}
		if next >= queueAt && e.tracer != nil {
			e.tracer.Queue()
		}
	}
}

// advance moves the due groups, the first due entries of the ring, to
// their next needed edge. A group of Sleepers none of which is awake
// strides to the first edge a member wakes at (see Sleeper), unless a wire
// of it or one committed at every instant has an intercept, or a fast path
// is installed; any other group's next edge is one period on. Its cached
// edge is an exact edge of its clock (rebuild is the only place that
// derives one from phase and period), and so is the new one. The head's
// slot becomes the tail, and the group walks back from there past every
// group strictly later than its new edge.
func (e *Engine) advance(due int) {
	for n := len(e.ring); due > 0; due-- {
		r := e.ring[e.head]
		if g := e.groups[r.g]; g.strides && e.every.hooks == 0 && e.fast == nil && (!g.wired || g.set.hooks == 0) {
			g.stride = int32(max(1, min(g.short, g.calHead, g.edge+maxStride)-g.edge))
			r.next += clock.Time(g.stride) * r.period
		} else {
			r.next += r.period
		}
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
}

// maxStride bounds a stride, so that a group whose every member sleeps
// for good (a disabled generator's promise) keeps a finite next edge: it
// is dispatched once per maxStride edges, passing every member over.
const maxStride = 1 << 30

// queueSpan is how much simulated time a Run covers before its tracer
// queues for the worker: a shorter run, such as one step of a sweep or
// a trial of BenchmarkTraceOverhead's 100 cycles, emits too few events
// to pay for starting and draining it.
const queueSpan = clock.Microsecond

// dispatch updates the components of the due groups at now, in add order,
// from the first after add index from on. It walks each group's dispatch
// list in place, merging them when several groups are due. A wake inside
// an Update (Sync, Add, Remove, InvalidateSchedule, SetFastPath) puts every
// Sleeper back in its group's dispatch list, so the rest of the instant
// dispatches every component of the due groups after the running one.
func (e *Engine) dispatch(now clock.Time, from int) {
	gs := e.dueGroups
	if len(gs) == 1 {
		g := gs[0]
		for i := after(g.active, from); i < len(g.active); i++ {
			if e.step(g, &g.active[i], now) {
				e.dispatch(now, e.cursor)
				return
			}
		}
		return
	}
	heads := e.heads[:0]
	for _, g := range gs {
		heads = append(heads, after(g.active, from))
	}
	e.heads = heads
	for {
		k := -1
		for j, g := range gs {
			if heads[j] < len(g.active) && (k < 0 || g.active[heads[j]].idx < gs[k].active[heads[k]].idx) {
				k = j
			}
		}
		if k < 0 {
			return
		}
		g := gs[k]
		heads[k]++
		if e.step(g, &g.active[heads[k]-1], now) {
			e.dispatch(now, e.cursor)
			return
		}
	}
}

// after returns the position in a of the first component after add index
// idx.
func after(a []indexedComp, idx int) int {
	if idx < 0 {
		return 0
	}
	i, j := 0, len(a)
	for i < j {
		if m := int(uint(i+j) >> 1); a[m].idx <= idx {
			i = m + 1
		} else {
			j = m
		}
	}
	return i
}

// step is one component's edge at now in g's dispatch list. A Sleeper kept
// in the list is passed over until its wake edge; one due here is first
// passed the edges it slept through. After its Update a Sleeper is asked
// for its next sleep. step reports a wake inside the Update: the running
// component then stays awake, and c may hold another component.
func (e *Engine) step(g *clockGroup, c *indexedComp, now clock.Time) bool {
	if c.wake > 0 {
		if c.wake > g.edge { // kept, not due yet
			g.short = min(g.short, c.wake)
			return false
		}
		if k := g.edge - c.since - 1; k > 0 {
			c.sl.Skip(k)
		}
		c.wake = 0
	}
	e.cursor = c.idx
	e.dispatched++
	c.c.Update(now)
	if e.woke {
		e.woke = false
		return true
	}
	if c.sl == nil || e.fast != nil { // an Update may install a fast path
		return false
	}
	// A Sleeper that promises idle edges sleeps until the edge after
	// them. In a group of Sleepers it stays in the dispatch list when it
	// wakes no later than any Sleeper kept there at this edge; otherwise
	// it leaves for the group's wake calendar.
	if k := c.sl.Idle(now); k <= 0 {
		g.short = 0
	} else if at := wakeEdge(g.edge, k); g.strides && at <= g.short {
		c.since, c.wake, g.short = g.edge, at, at
		e.asleep = true
	} else {
		e.park(g, c, at)
	}
	return false
}

// wakeEdge is the group edge after the k idle edges a Sleeper promised at
// edge.
func wakeEdge(edge, k int64) int64 {
	if k < math.MaxInt64-edge-1 {
		return edge + k + 1
	}
	return math.MaxInt64 // a disabled generator's promise
}

// park moves c, asleep until group edge at, from g's dispatch list to its
// wake calendar.
func (e *Engine) park(g *clockGroup, c *indexedComp, at int64) {
	e.asleep = true
	c.wake = -1
	g.cal = append(g.cal, wakeEntry{edge: at, since: g.edge, pos: c.pos})
	siftUp(g.cal, len(g.cal)-1, wakeLess)
	g.calHead = g.cal[0].edge
	if g.leaving < 0 || c.idx < int(g.leaving) {
		g.leaving = int32(c.idx)
	}
}

// wakeDue moves the components g's calendar wakes at its current edge back
// into its dispatch list, merging from the back so add order holds.
func (e *Engine) wakeDue(g *clockGroup) {
	w := e.wakers[:0]
	for g.calHead == g.edge {
		top := g.cal[0]
		c := g.comps[top.pos]
		c.since, c.wake = top.since, top.edge
		w = append(w, c) // in add order: the calendar breaks ties on it
		last := len(g.cal) - 1
		g.cal[0] = g.cal[last]
		g.cal = g.cal[:last]
		siftDown(g.cal, 0, wakeLess)
		g.calHead = math.MaxInt64
		if last > 0 {
			g.calHead = g.cal[0].edge
		}
	}
	e.wakers = w
	n := len(g.active)
	a := slices.Grow(g.active, len(w))[:n+len(w)] // capacity is len(comps)
	i, d := n-1, len(a)-1
	for j := len(w) - 1; j >= 0; d-- {
		if i >= 0 && a[i].idx > w[j].idx {
			a[d] = a[i]
			i--
		} else {
			a[d] = w[j]
			j--
		}
	}
	g.active = a
}

// compact drops from g's dispatch list the components that left for its
// calendar at this instant, all at or after add index g.leaving.
func (g *clockGroup) compact() {
	a := g.active
	i := after(a, int(g.leaving)-1)
	j := i
	for ; i < len(a); i++ {
		if c := a[i]; c.wake >= 0 {
			a[j] = c
			j++
		}
	}
	g.active = a[:j]
	g.leaving = -1
}

// wakeLess orders a wake calendar, a min-heap on (edge, add order).
func wakeLess(a, b wakeEntry) bool {
	if a.edge != b.edge {
		return a.edge < b.edge
	}
	return a.pos < b.pos
}

// timerLess orders the callback min-heap on (at, seq).
func timerLess(a, b timerEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp restores the min-heap h under less after h[i] was set.
func siftUp[E any](h []E, i int, less func(a, b E) bool) {
	for i > 0 {
		p := (i - 1) / 2
		if !less(h[i], h[p]) {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// siftDown restores the min-heap h under less after h[i] was set.
func siftDown[E any](h []E, i int, less func(a, b E) bool) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && less(h[l], h[m]) {
			m = l
		}
		if r < len(h) && less(h[r], h[m]) {
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
