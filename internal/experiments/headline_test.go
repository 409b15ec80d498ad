package experiments

import (
	"fmt"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/wrapper"
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

// TestSec7AsyncEdgeMix pins what the engine does on the Section VII use
// case of seed 2009 on 60 plesiochronous clocks, as the sec7_async_plain
// workload runs it (2 µs of warm-up, 40 µs measured at 500 MHz), at PPM 0
// and at PPM 1000. Every router and NI is a wrapper on its own clock, and
// each generator runs on its NI's clock. Edges counts every component
// edge, slept or not; fires and stalls are the wrappers' own counts;
// Dispatched counts the Update calls made. A wrapper sleeps through the
// two busy edges after each fire, and a clock whose generators sleep too
// strides over them, so of the 5 460 000 edges only the fires and the
// generators' working edges are dispatched: 499 790 at PPM 0, where an
// engine that dispatched every wrapper edge made 1 339 729.
func TestSec7AsyncEdgeMix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 42 µs of the asynchronous fabric twice")
	}
	_, uc, _, err := BuildSec7(Sec7Seed, 500, core.Asynchronous, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		ppm  float64
		want string
	}{
		{0, "components 260, wrappers 60, generators 200, edges 5460000, fires 420000, stalls 0, dispatched 499790"},
		{1000, "components 260, wrappers 60, generators 200, edges 5460295, fires 419719, stalls 930, dispatched 500421"},
	} {
		t.Run(fmt.Sprintf("ppm%g", row.ppm), func(t *testing.T) {
			n, err := core.Build(Sec7Mesh(), uc, core.Config{FreqMHz: 500, Mode: core.Asynchronous, Transactional: true, PPM: row.ppm})
			if err != nil {
				t.Fatal(err)
			}
			if rep := n.Run(2000, 40000); !rep.AllMet() {
				t.Fatalf("%d requirements missed", len(rep.Violations()))
			}
			eng := n.Engine()
			var wrappers, gens int
			var fires, stalls int64
			for _, c := range eng.AddOrder() {
				switch c := c.(type) {
				case *wrapper.Wrapper:
					wrappers++
					fires += c.Fires()
					stalls += c.Stalled()
				case *traffic.Generator:
					gens++
				}
			}
			got := fmt.Sprintf("components %d, wrappers %d, generators %d, edges %d, fires %d, stalls %d, dispatched %d",
				len(eng.AddOrder()), wrappers, gens, eng.Edges(), fires, stalls, eng.Dispatched())
			if got != row.want {
				t.Errorf("edge mix:\n got %s\nwant %s", got, row.want)
			}
		})
	}
}
