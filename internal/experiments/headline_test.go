package experiments

import (
	"fmt"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// The Section VII headline run as aelite-sim -audit makes it: 2 µs of
// warm-up and 100 µs measured at 500 MHz, 51 000 edges of the one clock.
const headlineWarmupNs, headlineMeasureNs = 2000, 100000

// headlineNet builds the synchronous Section VII network for seed, with
// the trace bus, metrics sink and auditor attached when audited is set,
// and returns the metrics sink (nil when detached).
func headlineNet(tb testing.TB, seed int64, audited bool) (*core.Network, *trace.Metrics) {
	tb.Helper()
	n, _, _, err := BuildSec7(seed, 500, core.Synchronous, false)
	if err != nil {
		tb.Fatal(err)
	}
	var mx *trace.Metrics
	if audited {
		bus := trace.NewBus()
		mx = trace.NewMetrics(bus)
		audit.Attach(n, bus, fault.NewCollector(), audit.Options{})
		n.AttachTracer(bus)
	}
	return n, mx
}

// BenchmarkSec7Headline times the headline run's simulation, audited (the
// bus, metrics sink and auditor attached, as the sec7_sync_audit workload
// runs it) and detached (no tracer). The build is outside the timer. Run
// with
//
//	go test -run '^$' -bench BenchmarkSec7Headline -benchtime 1x ./internal/experiments
func BenchmarkSec7Headline(b *testing.B) {
	for _, audited := range []bool{true, false} {
		name := "detached"
		if audited {
			name = "audited"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				n, _ := headlineNet(b, Sec7Seed, audited)
				b.StartTimer()
				if rep := n.Run(headlineWarmupNs, headlineMeasureNs); !rep.AllMet() {
					b.Fatalf("%d requirements missed", len(rep.Violations()))
				}
			}
		})
	}
}

// TestSec7EdgeMix pins what the engine does on the headline run of seed
// 2009, so a change to dispatch shows what it removed. Edges counts every
// component edge, slept or not: 201 components over 51 000 edges.
// Dispatched counts the Update calls made. The 12 routers and 48 NIs are
// one component, the flit fabric, dispatched on every edge; a traffic
// generator only on the edges it works, which are some 186 000 of its
// 10.2 million.
// The bus carries 965 745 events.
func TestSec7EdgeMix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 102 µs headline")
	}
	n, mx := headlineNet(t, Sec7Seed, true)
	if rep := n.Run(headlineWarmupNs, headlineMeasureNs); !rep.AllMet() {
		t.Fatalf("%d requirements missed", len(rep.Violations()))
	}
	eng := n.Engine()
	comps, gens := len(eng.AddOrder()), 0
	for _, c := range eng.AddOrder() {
		if _, ok := c.(*traffic.Generator); ok {
			gens++
		}
	}
	const edges = 51000
	genDispatched := eng.Dispatched() - int64(comps-gens)*edges
	got := fmt.Sprintf("components %d, generators %d, edges %d, dispatched %d, generator dispatches %d, events %d",
		comps, gens, eng.Edges(), eng.Dispatched(), genDispatched, mx.Events())
	want := "components 201, generators 200, edges 10251000, dispatched 237292, generator dispatches 186292, events 965745"
	if got != want {
		t.Errorf("edge mix:\n got %s\nwant %s", got, want)
	}
}
