package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/clock"
)

// buildAllocRig assembles a pure-engine workload: three clock domains with
// deliberately coprime periods (so instants alternate between single-domain
// dispatch and coincident multi-domain merges), register chains on clocked
// wires, one globally committed wire, and a Sleeper that works one edge in
// five.
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
	eng.Add(&dozer{ticker{clk: ckb, every: 5}})
	eng.Run(20 * 3000) // warm past ring growth and the lazy rebuild
	return eng
}

// A ticker is a traffic generator in miniature: it does work on one edge
// in every and only counts on the others.
type ticker struct {
	clk          *clock.Clock
	every        int64
	count, fires int64
}

func (t *ticker) Name() string        { return "ticker" }
func (t *ticker) Clock() *clock.Clock { return t.clk }
func (t *ticker) Update(now clock.Time) {
	if t.count++; t.count == t.every {
		t.count = 0
		t.fires++
	}
}

// A dozer is a ticker that sleeps through the edges it only counts on.
type dozer struct{ ticker }

func (d *dozer) Idle(now clock.Time) int64 { return d.every - 1 - d.count }
func (d *dozer) Skip(n int64)              { d.count += n }

// relay is a wrapper in miniature: on its own clock it fires when its input
// channel holds a visible token and its output channel has space, moving
// the token across in place.
type relay struct {
	clk     *clock.Clock
	in, out *TokenChannel[[24]int64]
	fires   int
}

func (r *relay) Name() string        { return "relay" }
func (r *relay) Clock() *clock.Clock { return r.clk }
func (r *relay) Update(now clock.Time) {
	if r.in.Valid(now) && r.out.CanPush() {
		*r.out.Push(now) = *r.in.Pop(now)
		r.fires++
	}
}

// buildChannelRig closes five relays on equal-period, differently phased
// clocks into a loop of primed token channels — the shape of asynchronous
// mode: one due clock per instant at the ring's head, channels registered
// with nobody.
func buildChannelRig() (*Engine, []*relay) {
	clks := make([]*clock.Clock, 5)
	for i := range clks {
		clks[i] = clock.New("r", 1000, clock.Duration(170*i))
	}
	eng, relays, _ := buildDomains(clks, 0, false)
	eng.Run(20 * 3000)
	return eng, relays
}

// buildDomains closes one relay per clock into a loop of primed token
// channels, and gives each domain gens tickers that work one edge in 50 —
// a Section VII generator's duty cycle — as dozers when sleep is set.
func buildDomains(clks []*clock.Clock, gens int, sleep bool) (*Engine, []*relay, []*ticker) {
	eng := New()
	n := len(clks)
	chans := make([]*TokenChannel[[24]int64], n)
	for i := range chans {
		chans[i] = NewTokenChannel[[24]int64]("ch", 4, 2*clks[i].Period)
		chans[i].Prime([24]int64{})
		chans[i].Prime([24]int64{})
	}
	relays := make([]*relay, n)
	var tickers []*ticker
	for i, ck := range clks {
		relays[i] = &relay{clk: ck, in: chans[i], out: chans[(i+1)%n]}
		eng.Add(relays[i])
		for k := 0; k < gens; k++ {
			d := &dozer{ticker{clk: ck, every: 50, count: int64(k+i) % 50}}
			tickers = append(tickers, &d.ticker)
			if sleep {
				eng.Add(d)
			} else {
				eng.Add(&d.ticker)
			}
		}
	}
	return eng, relays, tickers
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

// BenchmarkEngineRunDomains is asynchronous mode's engine shape at Section
// VII scale: 60 clock domains at one shared period (PPM 0) or at periods up
// to 1000 ppm apart (2 ps at 500 MHz). Each domain holds one component
// that only counts (bare: the schedule alone); or a relay in a loop of
// token channels and three tickers, dispatched every edge (awake) or
// sleeping between their working edges; or, as a wrapper's clock group
// is, only Sleepers: one that works one edge in three beside three
// sleeping tickers (wrapped). One op is 1000 base periods.
func BenchmarkEngineRunDomains(b *testing.B) {
	const domains, gens, periods = 60, 3, 1000
	base := clock.NewMHz("base", 500, 0)
	for _, ppm := range []float64{0, 1000} {
		for _, mode := range []string{"bare", "awake", "sleeping", "wrapped"} {
			b.Run(fmt.Sprintf("ppm%g/%s", ppm, mode), func(b *testing.B) {
				rng := rand.New(rand.NewSource(2009))
				clks := make([]*clock.Clock, domains)
				for i := range clks {
					clks[i] = clock.Plesiochronous(base, "d", (2*rng.Float64()-1)*ppm, clock.Duration(rng.Int63n(int64(base.Period))))
				}
				eng := New()
				working := func() bool { return eng.Edges() > 0 }
				switch mode {
				case "bare":
					for _, ck := range clks {
						eng.Add(&ticker{clk: ck, every: math.MaxInt64})
					}
				case "wrapped":
					var tickers []*ticker
					for i, ck := range clks {
						eng.Add(&dozer{ticker{clk: ck, every: 3}})
						for k := 0; k < gens; k++ {
							d := &dozer{ticker{clk: ck, every: 50, count: int64(k+i) % 50}}
							tickers = append(tickers, &d.ticker)
							eng.Add(d)
						}
					}
					working = func() bool { return tickers[0].fires > 0 }
				default:
					var relays []*relay
					var tickers []*ticker
					eng, relays, tickers = buildDomains(clks, gens, mode == "sleeping")
					working = func() bool { return relays[0].fires > 0 && tickers[0].fires > 0 }
				}
				eng.Run(20 * base.Period)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.Run(eng.Now() + periods*base.Period)
				}
				b.StopTimer()
				if !working() {
					b.Fatalf("%s rig: nothing moved", mode)
				}
			})
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
