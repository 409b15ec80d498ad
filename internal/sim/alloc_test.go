package sim

import (
	"testing"

	"repro/internal/clock"
)

// buildAllocRig assembles a pure-engine workload: three clock domains with
// deliberately coprime periods (so instants alternate between single-domain
// dispatch and coincident multi-domain merges), register chains on clocked
// wires, and one globally committed wire.
func buildAllocRig() *Engine {
	eng := New()
	cka := clock.New("a", 1000, 0)
	ckb := clock.New("b", 1500, 250)
	ckc := clock.New("c", 3000, 0)
	global := NewWire[int]("global")
	eng.AddWire(global)
	prev := global
	for i, ck := range []*clock.Clock{cka, ckb, ckc, cka, ckb, cka} {
		w := NewWire[int]("w")
		eng.AddWireClocked(w, ck)
		eng.Add(&counter{name: "c", clk: ck, in: prev, out: w})
		prev = w
		_ = i
	}
	eng.Run(20 * 3000) // warm past heap growth and the lazy rebuild
	return eng
}

// relay is a wrapper in miniature: on its own clock it fires when its input
// channel holds a visible token and its output channel has space, moving
// the token across in place.
type relay struct {
	clk     *clock.Clock
	in, out *TokenChannel[[24]int64]
	fires   int
}

func (r *relay) Name() string          { return "relay" }
func (r *relay) Clock() *clock.Clock   { return r.clk }
func (r *relay) Sample(now clock.Time) {}
func (r *relay) Update(now clock.Time) {
	if r.in.Valid(now) && r.out.CanPush() {
		*r.out.Push(now) = *r.in.Pop(now)
		r.fires++
	}
}

// buildChannelRig closes five relays on equal-period, differently phased
// clocks into a loop of primed token channels — the shape of asynchronous
// mode: one due clock per instant through the heap, channels registered
// with nobody.
func buildChannelRig() (*Engine, []*relay) {
	eng := New()
	const n = 5
	chans := make([]*TokenChannel[[24]int64], n)
	for i := range chans {
		chans[i] = NewTokenChannel[[24]int64]("ch", 4, 2000)
		chans[i].Prime([24]int64{})
		chans[i].Prime([24]int64{})
	}
	relays := make([]*relay, n)
	for i := range relays {
		relays[i] = &relay{clk: clock.New("r", 1000, clock.Duration(170*i)), in: chans[i], out: chans[(i+1)%n]}
		eng.Add(relays[i])
	}
	eng.Run(20 * 3000)
	return eng, relays
}

// TestRunSteadyStateAllocs pins the hot-path contract the sweep runner
// depends on: once the schedule is built and the scratch buffers have
// grown, advancing simulated time allocates nothing — no per-call due
// slices, no sort closures, no per-instant commit bookkeeping, and no
// token storage: a channel's ring is its only buffer.
func TestRunSteadyStateAllocs(t *testing.T) {
	wires := buildAllocRig()
	chans, relays := buildChannelRig()
	for name, eng := range map[string]*Engine{"wires": wires, "channels": chans} {
		allocs := testing.AllocsPerRun(200, func() {
			eng.Run(eng.Now() + 3000)
		})
		if allocs != 0 {
			t.Errorf("%s rig: Engine.Run allocates %.1f objects per steady-state call, want 0", name, allocs)
		}
	}
	for i, r := range relays {
		if r.fires < 200 {
			t.Errorf("relay %d fired %d times: the channel rig is not moving tokens", i, r.fires)
		}
	}
}

// BenchmarkEngineRunAllocs is the alloc guard in benchmark form: run with
// -benchmem to see B/op and allocs/op for steady-state dispatch across
// three interleaved clock domains.
func BenchmarkEngineRunAllocs(b *testing.B) {
	eng := buildAllocRig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Run(eng.Now() + 3000)
	}
	if n := testing.AllocsPerRun(100, func() { eng.Run(eng.Now() + 3000) }); n != 0 {
		b.Fatalf("steady-state Run allocates %.1f objects per call, want 0", n)
	}
}

// TestClockedWireMatchesGlobalWire: the same two-stage register chain must
// behave identically whether its wires commit every instant (AddWire) or
// batched with their writer's clock group (AddWireClocked), even with an
// unrelated faster clock domain forcing engine instants between the
// chain's edges.
func TestClockedWireMatchesGlobalWire(t *testing.T) {
	build := func(clocked bool) (*Engine, *Wire[int]) {
		eng := New()
		slow := clock.New("slow", 3000, 0)
		fast := clock.New("fast", 700, 0)
		w1 := NewWire[int]("w1")
		w2 := NewWire[int]("w2")
		if clocked {
			eng.AddWireClocked(w1, slow)
			eng.AddWireClocked(w2, slow)
		} else {
			eng.AddWire(w1)
			eng.AddWire(w2)
		}
		eng.Add(&counter{name: "a", clk: slow, out: w1})
		eng.Add(&counter{name: "b", clk: slow, in: w1, out: w2})
		eng.Add(&counter{name: "noise", clk: fast})
		return eng, w2
	}
	ge, gw := build(false)
	ce, cw := build(true)
	for step := 1; step <= 10; step++ {
		until := clock.Time(step * 2500)
		ge.Run(until)
		ce.Run(until)
		if gw.Read() != cw.Read() {
			t.Fatalf("step %d: global-committed chain reads %d, clock-batched chain %d",
				step, gw.Read(), cw.Read())
		}
	}
}

// TestClockedWireOrphanFallsBack: a wire registered against a clock that
// drives no component must still commit (at every instant), not silently
// swallow drives.
func TestClockedWireOrphanFallsBack(t *testing.T) {
	eng := New()
	ck := clock.New("c", 1000, 0)
	orphanClk := clock.New("orphan", 500, 0)
	w := NewWire[int]("w")
	eng.AddWireClocked(w, orphanClk)
	eng.Add(&counter{name: "a", clk: ck, out: w})
	eng.Run(1000)
	if got := w.Read(); got != 1 {
		t.Fatalf("orphan-clocked wire reads %d after one writer edge, want 1", got)
	}
}

// TestClockedInterceptRunsPerWriterCycle: on a clock-batched wire the
// commit intercept fires once per writer-clock edge — the per-cycle
// semantics fault injection documents — not once per engine instant.
func TestClockedInterceptRunsPerWriterCycle(t *testing.T) {
	eng := New()
	slow := clock.New("slow", 3000, 0)
	fast := clock.New("fast", 500, 0)
	w := NewWire[int]("w")
	eng.AddWireClocked(w, slow)
	eng.Add(&counter{name: "a", clk: slow, out: w})
	eng.Add(&counter{name: "noise", clk: fast})
	calls := 0
	w.SetIntercept(func(v int, driven bool) int {
		calls++
		if !driven {
			t.Fatalf("intercept saw an undriven commit; writer drives on every edge")
		}
		return v
	})
	eng.Run(9000) // 3 slow edges, 18 fast edges
	if calls != 3 {
		t.Fatalf("intercept ran %d times, want once per writer edge (3)", calls)
	}
}
