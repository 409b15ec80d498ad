package trace

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/phit"
)

// deferLog is a deferred sink that records what it receives and panics
// with boom at event panicAt (counting from 1; 0 never).
type deferLog struct {
	evs     []Event
	panicAt int
	boom    error
}

func (s *deferLog) Deferred() bool { return true }

func (s *deferLog) Event(ev Event) {
	s.evs = append(s.evs, ev)
	if len(s.evs) == s.panicAt {
		panic(s.boom)
	}
}

// testEvent is the i-th event of a test stream, every field distinct.
func testEvent(i int) Event {
	return Event{Time: clock.Time(1000 * i), Ref: clock.Time(i), Seq: int64(i), Arg: int64(-i),
		Conn: phit.ConnID(i % 7), Slot: int32(i % 5), Kind: Kind(i % kindCount)}
}

// stopped waits for the goroutine count to fall back to base.
func stopped(t *testing.T, base int) {
	t.Helper()
	for start := time.Now(); runtime.NumGoroutine() > base; {
		if time.Since(start) > 2*time.Second {
			t.Fatalf("%d goroutines after Drain, %d before: the worker is still running", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeferredDeliveryInOrder: a deferred sink and an inline one receive
// the same events, in emission order, from emitters and Bus.Emit alike,
// before Queue, across many chunks after it and a partial last one; the
// inline one at once, the deferred one at once before Queue and by Drain
// after it. Drain stops the worker.
func TestDeferredDeliveryInOrder(t *testing.T) {
	base := runtime.NumGoroutine()
	bus := NewBus()
	def, in := &deferLog{}, &sliceSink{}
	bus.Attach(def)
	bus.Attach(in)
	ems := []*Emitter{bus.Emitter("a"), bus.Emitter("b")}
	var want []Event
	for i := 0; i < 3*chunkEvents+17; i++ {
		if i == 5 {
			if len(def.evs) != 5 {
				t.Fatalf("before Queue the deferred sink holds %d of 5 events", len(def.evs))
			}
			bus.Queue()
		}
		ev := testEvent(i)
		if i%3 == 0 {
			bus.Emit(ev)
		} else {
			em := ems[i%2]
			em.Emit(ev)
			ev.Comp = em.Comp()
		}
		want = append(want, ev)
		if len(in.evs) != i+1 {
			t.Fatalf("event %d: the inline sink holds %d events", i, len(in.evs))
		}
	}
	bus.Drain()
	for _, s := range [][]Event{def.evs, in.evs} {
		if len(s) != len(want) {
			t.Fatalf("a sink received %d events, want %d", len(s), len(want))
		}
		for i := range want {
			if s[i] != want[i] {
				t.Fatalf("event %d: got %+v, want %+v", i, s[i], want[i])
			}
		}
	}
	stopped(t, base)
}

// TestBusDrainsFirst: everything that changes what sinks see, or reads a
// deferred sink, first delivers what is pending.
func TestBusDrainsFirst(t *testing.T) {
	for _, op := range []struct {
		name string
		do   func(bus *Bus, m *Metrics, c *Chrome)
	}{
		{"Drain", func(bus *Bus, m *Metrics, c *Chrome) { bus.Drain() }},
		{"Attach", func(bus *Bus, m *Metrics, c *Chrome) { bus.Attach(&sliceSink{}) }},
		{"Detach", func(bus *Bus, m *Metrics, c *Chrome) { bus.Detach(&sliceSink{}) }},
		{"SetSilent", func(bus *Bus, m *Metrics, c *Chrome) { bus.SetSilent(false) }},
		{"Component", func(bus *Bus, m *Metrics, c *Chrome) { bus.Component("new") }},
		{"Emitter", func(bus *Bus, m *Metrics, c *Chrome) { bus.Emitter("new") }},
		{"EmitEpochs", func(bus *Bus, m *Metrics, c *Chrome) {
			bus.EmitEpochs(&Epoch{Events: []Event{{Kind: Inject, Time: 1 << 40}}, DSeq: []int64{0}, Len: 1}, 0, 1)
		}},
		{"Metrics.Count", func(bus *Bus, m *Metrics, c *Chrome) { m.Count(Inject) }},
		{"Metrics.Events", func(bus *Bus, m *Metrics, c *Chrome) { m.Events() }},
		{"Metrics.Conn", func(bus *Bus, m *Metrics, c *Chrome) { m.Conn(1) }},
		{"Metrics.Report", func(bus *Bus, m *Metrics, c *Chrome) { m.Report(0, 2000) }},
		{"Chrome.Len", func(bus *Bus, m *Metrics, c *Chrome) { c.Len() }},
	} {
		bus := NewBus()
		def := &deferLog{}
		bus.Attach(def)
		m, c := NewMetrics(bus), NewChrome(bus)
		em := bus.Emitter("a")
		bus.Queue()
		n := chunkEvents + 5 // one chunk to the worker, a partial one pending
		for i := 0; i < n; i++ {
			em.Emit(testEvent(i))
		}
		op.do(bus, m, c)
		if len(def.evs) < n || len(c.events) < n || m.counts[Inject] == 0 {
			t.Errorf("%s: delivered %d, %d of %d events before returning", op.name, len(def.evs), len(c.events), n)
		}
		// The drain ended the queueing: the next event arrives at once.
		em.Emit(testEvent(n))
		if len(def.evs) != n+1 && op.name != "EmitEpochs" {
			t.Errorf("%s: after it the deferred sink holds %d of %d events", op.name, len(def.evs), n+1)
		}
		bus.Drain()
	}
}

// TestDeferredPanicReraisedAtDrain: a deferred sink's panic on the worker
// comes out of the next Drain with the same value, nothing more reaches
// the deferred sinks after it, and the bus works again afterwards.
func TestDeferredPanicReraisedAtDrain(t *testing.T) {
	base := runtime.NumGoroutine()
	boom := errors.New("boom")
	bus := NewBus()
	def := &deferLog{panicAt: 10, boom: boom}
	other := &deferLog{}
	bus.Attach(def)
	bus.Attach(other)
	em := bus.Emitter("a")
	bus.Queue()
	for i := 0; i < 3*chunkEvents+1; i++ { // the first chunk panics on the worker
		em.Emit(testEvent(i))
	}
	var got any
	func() {
		defer func() { got = recover() }()
		bus.Drain()
	}()
	if got != boom {
		t.Fatalf("Drain raised %v, want the sink's %v", got, boom)
	}
	if len(def.evs) != 10 || len(other.evs) != 0 {
		t.Errorf("after the panic the sinks hold %d and %d events, want 10 and 0", len(def.evs), len(other.evs))
	}
	stopped(t, base)
	def.panicAt = 0
	em.Emit(testEvent(0))
	bus.Drain()
	if len(def.evs) != 11 || len(other.evs) != 1 {
		t.Errorf("after recovery the sinks hold %d and %d events, want 11 and 1", len(def.evs), len(other.evs))
	}
}

// TestInlinePanicLeavesEmit: a sink that does not defer panics inside
// Emit, as it always has, queueing or not.
func TestInlinePanicLeavesEmit(t *testing.T) {
	bus := NewBus()
	bus.Attach(&deferLog{})
	bus.Attach(inlinePanic{})
	bus.Queue()
	defer bus.Drain()
	defer func() {
		if got := recover(); got != "inline" {
			t.Errorf("Emit raised %v, want the inline sink's panic", got)
		}
	}()
	bus.Emit(testEvent(1))
	t.Error("Emit returned")
}

type inlinePanic struct{}

func (inlinePanic) Event(Event) { panic("inline") }

// TestDeferredSinksAttachLate: a deferred sink attached mid-stream sees
// only what follows, and one detached mid-stream everything before.
func TestDeferredSinksAttachLate(t *testing.T) {
	bus := NewBus()
	early, late := &deferLog{}, &deferLog{}
	bus.Attach(early)
	bus.Queue()
	for i := 0; i < chunkEvents+3; i++ {
		bus.Emit(testEvent(i))
	}
	bus.Attach(late)
	bus.Queue()
	for i := 0; i < 2*chunkEvents; i++ {
		bus.Emit(testEvent(i))
	}
	bus.Detach(early)
	bus.Emit(testEvent(0))
	bus.Drain()
	if got, want := fmt.Sprint(len(early.evs), len(late.evs)), fmt.Sprint(3*chunkEvents+3, 2*chunkEvents+1); got != want {
		t.Errorf("early and late sinks hold %s events, want %s", got, want)
	}
}
