package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/trace"
)

// counter is a minimal component: it reads an input wire, adds one, and
// drives an output wire.
type counter struct {
	name     string
	clk      *clock.Clock
	in, out  *Wire[int]
	sampled  int
	updates  int
	lastTime clock.Time
}

func (c *counter) Name() string        { return c.name }
func (c *counter) Clock() *clock.Clock { return c.clk }
func (c *counter) Update(now clock.Time) {
	if c.in != nil {
		c.sampled = c.in.Read()
	}
	c.updates++
	c.lastTime = now
	if c.out != nil {
		c.out.Drive(c.sampled + 1)
	}
}

func TestEngineRunsEdges(t *testing.T) {
	eng := New()
	clk := clock.New("c", 1000, 0)
	a := &counter{name: "a", clk: clk}
	eng.Add(a)
	eng.Run(5000)
	// Edges strictly after 0 and <= 5000: 1000..5000 = 5 edges.
	if a.updates != 5 {
		t.Errorf("updates = %d, want 5", a.updates)
	}
	if eng.Now() != 5000 {
		t.Errorf("Now = %d", eng.Now())
	}
	if eng.Edges() != 5 {
		t.Errorf("Edges = %d", eng.Edges())
	}
}

// TestRegisterSemantics: a chain a->w1->b->w2: values driven at instant t
// are visible only at instants > t, so the pipeline delays by one cycle
// per stage.
func TestRegisterSemantics(t *testing.T) {
	eng := New()
	clk := clock.New("c", 1000, 0)
	w1 := NewWire[int]("w1")
	w2 := NewWire[int]("w2")
	eng.AddWire(w1)
	eng.AddWire(w2)
	a := &counter{name: "a", clk: clk, out: w1}
	b := &counter{name: "b", clk: clk, in: w1, out: w2}
	eng.Add(a)
	eng.Add(b)
	eng.Run(1000) // one edge
	// a drove 1 into w1; b sampled the OLD w1 (0) and drove 1 into w2.
	if got := w1.Read(); got != 1 {
		t.Errorf("w1 = %d, want 1", got)
	}
	if got := w2.Read(); got != 1 {
		t.Errorf("w2 = %d, want 1 (sampled zero + 1)", got)
	}
	eng.Run(2000)
	if got := w2.Read(); got != 2 {
		t.Errorf("after 2 edges w2 = %d, want 2", got)
	}
}

// TestOrderIndependence: with two-phase execution, registration order of
// same-clock components does not change results.
func TestOrderIndependence(t *testing.T) {
	run := func(swap bool) int {
		eng := New()
		clk := clock.New("c", 1000, 0)
		w1 := NewWire[int]("w1")
		w2 := NewWire[int]("w2")
		eng.AddWire(w1)
		eng.AddWire(w2)
		a := &counter{name: "a", clk: clk, out: w1}
		b := &counter{name: "b", clk: clk, in: w1, out: w2}
		if swap {
			eng.Add(b)
			eng.Add(a)
		} else {
			eng.Add(a)
			eng.Add(b)
		}
		eng.Run(7000)
		return w2.Read()
	}
	if x, y := run(false), run(true); x != y {
		t.Errorf("order-dependent result: %d vs %d", x, y)
	}
}

func TestMultiDomainInterleaving(t *testing.T) {
	eng := New()
	c1 := clock.New("c1", 1000, 0)
	c2 := clock.New("c2", 1000, 500) // mesochronous, half-cycle offset
	a := &counter{name: "a", clk: c1}
	b := &counter{name: "b", clk: c2}
	eng.Add(a)
	eng.Add(b)
	instants := eng.Run(3000)
	// Edges: c1 at 1000,2000,3000; c2 at 500,1500,2500 -> 6 instants.
	if instants != 6 {
		t.Errorf("instants = %d, want 6", instants)
	}
	if a.updates != 3 || b.updates != 3 {
		t.Errorf("updates = %d,%d", a.updates, b.updates)
	}
	if a.lastTime != 3000 || b.lastTime != 2500 {
		t.Errorf("lastTime = %d,%d", a.lastTime, b.lastTime)
	}
}

func TestRunCycles(t *testing.T) {
	eng := New()
	clk := clock.New("c", 2000, 0)
	a := &counter{name: "a", clk: clk}
	eng.Add(a)
	eng.RunCycles(clk, 4)
	if a.updates != 4 {
		t.Errorf("updates = %d, want 4", a.updates)
	}
	eng.RunCycles(clk, 0)
	if a.updates != 4 {
		t.Error("RunCycles(0) advanced the simulation")
	}
}

func TestComponentsSorted(t *testing.T) {
	eng := New()
	clk := clock.New("c", 1000, 0)
	eng.Add(&counter{name: "z", clk: clk})
	eng.Add(&counter{name: "a", clk: clk})
	got := eng.Components()
	if got[0].Name() != "a" || got[1].Name() != "z" {
		t.Errorf("Components not sorted: %v, %v", got[0].Name(), got[1].Name())
	}
}

func TestAddPanicsWithoutClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for component without clock")
		}
	}()
	New().Add(&counter{name: "x"})
}

type captureSink struct{ events []trace.Event }

func (c *captureSink) Event(ev trace.Event) { c.events = append(c.events, ev) }

func TestTracer(t *testing.T) {
	eng := New()
	if eng.Tracer() != nil {
		t.Error("tracing enabled by default")
	}
	bus := trace.NewBus()
	sink := &captureSink{}
	bus.Attach(sink)
	eng.SetTracer(bus)
	em := eng.Tracer().Emitter("test.comp")
	em.Emit(trace.Event{Time: 42, Kind: trace.Inject, Conn: 7})
	if len(sink.events) != 1 {
		t.Fatalf("events = %d", len(sink.events))
	}
	ev := sink.events[0]
	if ev.Time != 42 || ev.Kind != trace.Inject || ev.Conn != 7 {
		t.Errorf("event = %+v", ev)
	}
	if bus.ComponentName(ev.Comp) != "test.comp" {
		t.Errorf("component = %q", bus.ComponentName(ev.Comp))
	}
	eng.SetTracer(nil)
	if eng.Tracer() != nil {
		t.Error("tracer not cleared")
	}
}

// TestAtReturnsEffectiveFiringTime: scheduling a callback at or before the
// current instant cannot fire in the past, so At rounds it to the next
// executed instant — and must say so. A reconfiguration script that
// schedules "at now" needs the actual instant to reason about what state
// its callback will see; the old signature silently shifted it.
func TestAtReturnsEffectiveFiringTime(t *testing.T) {
	eng := New()
	clk := clock.New("c", 1000, 0)
	eng.Add(&counter{name: "a", clk: clk})
	eng.Run(5000) // now = 5000

	var fired []clock.Time
	record := func() { fired = append(fired, eng.Now()) }

	past := eng.At(4000, record)    // strictly in the past
	present := eng.At(5000, record) // at the current instant
	future := eng.At(6000, record)  // genuinely in the future
	if past != 5001 || present != 5001 {
		t.Errorf("effective times for past/present = %d, %d; want 5001, 5001", past, present)
	}
	if future != 6000 {
		t.Errorf("effective time for future = %d; want 6000", future)
	}

	eng.Run(7000)
	want := []clock.Time{past, present, future}
	if len(fired) != len(want) {
		t.Fatalf("fired %d callbacks, want %d", len(fired), len(want))
	}
	for i, at := range fired {
		if at != want[i] {
			t.Errorf("callback %d fired at %d, promised %d", i, at, want[i])
		}
	}
}

// oneShotDriver drives a single value on its first update, then goes
// quiet; it exists to leave a pending (uncommitted) drive on a wire.
type oneShotDriver struct {
	clk   *clock.Clock
	out   *Wire[int]
	v     int
	armed bool
}

func (d *oneShotDriver) Name() string        { return "oneshot" }
func (d *oneShotDriver) Clock() *clock.Clock { return d.clk }
func (d *oneShotDriver) Update(now clock.Time) {
	if d.armed {
		d.armed = false
		d.out.Drive(d.v)
	}
}

// TestOrphanedClockedWireCommitsAfterRemove: a wire clocked on domain B
// normally commits only on B's edges. When Remove strips B's last
// component mid-run, B's edges stop executing — the orphan fallback must
// take over and commit the wire's pending drive at subsequent instants
// instead of leaving it latched forever.
func TestOrphanedClockedWireCommitsAfterRemove(t *testing.T) {
	eng := New()
	clkA := clock.New("a", 1000, 0)
	clkB := clock.New("b", 1000, 500)
	w := NewWire[int]("w")
	eng.AddWireClocked(w, clkB)
	sink := &counter{name: "sink", clk: clkB, in: w}
	drv := &oneShotDriver{clk: clkA, out: w, v: 42}
	eng.Add(drv)
	eng.Add(sink)

	eng.Run(400) // before any edge: nothing driven, nothing committed
	if got := w.Read(); got != 0 {
		t.Fatalf("w committed %d before any edge", got)
	}
	drv.armed = true
	eng.Run(1200) // drv drives 42 at 1000; clkB's next commit edge is 1500
	if got := w.Read(); got != 0 {
		t.Fatalf("w = %d; the drive must stay pending until a clkB edge", got)
	}
	if !eng.Remove(sink) {
		t.Fatal("Remove did not find the component")
	}
	// clkB now drives no component: its edges never execute. The pending
	// 42 must still land via the orphan fallback at the next instant.
	eng.Run(2200)
	if got := w.Read(); got != 42 {
		t.Fatalf("w = %d after orphaning; pending drive was never committed", got)
	}
}

// phaseLog records the order of the engine's calls within an instant.
type phaseLog struct{ calls []string }

// updater logs its Update and the value its input wire reads there, then
// drives its output wire with its own name's length plus that value.
type updater struct {
	name    string
	clk     *clock.Clock
	log     *phaseLog
	in, out *Wire[int]
}

func (u *updater) Name() string        { return u.name }
func (u *updater) Clock() *clock.Clock { return u.clk }
func (u *updater) Update(now clock.Time) {
	v := 0
	if u.in != nil {
		v = u.in.Read()
	}
	u.log.calls = append(u.log.calls, fmt.Sprintf("update %s read %d", u.name, v))
	if u.out != nil {
		u.out.Drive(v + 1)
	}
}

// TestUpdateReadsCommittedValues: with no sample phase, every Update of an
// instant reads the values committed before it, whatever the add order
// and whether a writer updated earlier in the same instant, in one clock
// domain and across coincident edges of two; every component counts as an
// edge and is dispatched once.
func TestUpdateReadsCommittedValues(t *testing.T) {
	for name, clkB := range map[string]*clock.Clock{
		"one-domain":  nil,
		"two-domains": clock.New("b", 1000, 0),
	} {
		t.Run(name, func(t *testing.T) {
			eng := New()
			clkA := clock.New("a", 1000, 0)
			if clkB == nil {
				clkB = clkA
			}
			log := &phaseLog{}
			w1, w2 := NewWire[int]("w1"), NewWire[int]("w2")
			eng.AddWireClocked(w1, clkA)
			eng.AddWireClocked(w2, clkB)
			eng.Add(&updater{name: "u1", clk: clkA, log: log, in: w2, out: w1})
			eng.Add(&updater{name: "u2", clk: clkB, log: log, in: w1, out: w2})
			eng.Run(2000)
			want := []string{
				"update u1 read 0", "update u2 read 0",
				"update u1 read 1", "update u2 read 1",
			}
			if !slices.Equal(log.calls, want) {
				t.Fatalf("calls = %v, want %v", log.calls, want)
			}
			if eng.Edges() != 4 || eng.Dispatched() != 4 {
				t.Errorf("Edges = %d, Dispatched = %d, want 4 and 4", eng.Edges(), eng.Dispatched())
			}
		})
	}
}

// TestWireInterceptSeesValueAndDriven: the commit-time intercept observes,
// at every commit, the value about to be visible and whether this instant
// drove it — including the held value of an instant without a drive — and
// what it returns is what readers see.
func TestWireInterceptSeesValueAndDriven(t *testing.T) {
	type seen struct {
		v      int
		driven bool
	}
	w := NewWire[int]("w")
	var got []seen
	w.SetIntercept(func(v int, driven bool) int {
		got = append(got, seen{v, driven})
		if v == 3 {
			return 30 // overridden in place
		}
		return v
	})
	var reads []int
	for _, step := range []struct {
		drive bool
		v     int
	}{{true, 1}, {false, 0}, {true, 2}, {true, 3}, {false, 0}, {false, 0}, {true, 4}} {
		if step.drive {
			w.Drive(step.v)
		}
		w.commit()
		reads = append(reads, w.Read())
	}
	want := []seen{{1, true}, {1, false}, {2, true}, {3, true}, {30, false}, {30, false}, {4, true}}
	wantReads := []int{1, 1, 2, 30, 30, 30, 4}
	for i := range want {
		if got[i] != want[i] || reads[i] != wantReads[i] {
			t.Fatalf("commit %d: intercept saw %+v and readers %d, want %+v and %d", i, got[i], reads[i], want[i], wantReads[i])
		}
	}
}

// TestWiresListsEveryRegisteredWire: Wires returns each registered wire
// once, AddWire ones first, each kind in registration order, and a
// caller's edits to the list leave the engine's untouched.
func TestWiresListsEveryRegisteredWire(t *testing.T) {
	e := New()
	clk := clock.New("c", 1000, 0)
	a, b := NewWire[int]("a"), NewWire[bool]("b")
	c, d := NewWire[int]("c"), NewWire[string]("d")
	e.AddWireClocked(c, clk)
	e.AddWire(a)
	e.AddWireClocked(d, nil) // no clock: an AddWire one
	e.AddWire(b)
	var names []string
	ws := e.Wires()
	for _, w := range ws {
		names = append(names, w.Name())
	}
	if got := strings.Join(names, " "); got != "a d b c" {
		t.Fatalf("Wires lists %q, want %q", got, "a d b c")
	}
	if _, ok := ws[0].(*Wire[int]); !ok {
		t.Errorf("Wires()[0] is a %T, want the *Wire[int] registered", ws[0])
	}
	ws[0] = c
	if e.Wires()[0] != AnyWire(a) {
		t.Error("editing the returned list changed the engine's")
	}
}
