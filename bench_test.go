// Benchmarks regenerating every table and figure of the paper's
// evaluation (see EXPERIMENTS.md for the mapping), plus engine
// micro-benchmarks. Run with:
//
//	go test -bench=. -benchmem
//
// The Sec7 benchmarks print the experiment's headline numbers once per
// run via b.Log; -v shows them.
package repro

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/area"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/parallel"
	"repro/internal/phit"
	"repro/internal/route"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/slots"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/trace"
)

// --- E1: Fig. 5 — frequency/area trade-off ------------------------------

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig5()
		if len(rows) == 0 {
			b.Fatal("empty sweep")
		}
	}
	b.ReportMetric(area.RouterArea(5, 32, 650), "µm²@650MHz")
	b.ReportMetric(area.RouterMaxArea(5, 32), "µm²@fmax")
}

// --- E2/E3: Fig. 6 — arity and width scaling ----------------------------

func BenchmarkFig6a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.Fig6a(); len(rows) != 6 {
			b.Fatal("bad sweep")
		}
	}
	b.ReportMetric(area.RouterFmaxMHz(2, 32), "fmaxMHz-arity2")
	b.ReportMetric(area.RouterFmaxMHz(7, 32), "fmaxMHz-arity7")
}

func BenchmarkFig6b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.Fig6b(); len(rows) != 8 {
			b.Fatal("bad sweep")
		}
	}
	b.ReportMetric(area.RouterMaxArea(6, 256), "µm²-256bit")
	b.ReportMetric(area.RouterFmaxMHz(6, 256), "fmaxMHz-256bit")
}

// --- E4: Section V link/area comparison ---------------------------------

func BenchmarkLinkArea(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.LinkTable(); len(rows) < 8 {
			b.Fatal("bad table")
		}
	}
	b.ReportMetric(area.MesochronousRouterArea(5, 32, 600, false), "µm²-complete")
	b.ReportMetric(area.FIFOArea(4, 32, true), "µm²-customFIFO")
}

// --- E6: throughput headline --------------------------------------------

func BenchmarkThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.Throughput(); len(rows) == 0 {
			b.Fatal("bad table")
		}
	}
	f := area.RouterFmaxMHz(6, 64)
	b.ReportMetric(area.RawThroughputGBps(6, 64, f), "GB/s-oneway")
}

// --- E5: Section VII — the 200-connection simulation --------------------

// sec7MeasureNs keeps the benchmark windows moderate; the full-length run
// is cmd/aelite-exp sec7.
const sec7MeasureNs = 30000

func BenchmarkSec7Aelite(b *testing.B) {
	var rep *core.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.Sec7Aelite(experiments.Sec7Seed, 500, core.Synchronous, false, sec7MeasureNs)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.AllMet() {
			b.Fatal("aelite missed a requirement at 500 MHz")
		}
	}
	b.ReportMetric(float64(len(rep.Conns)), "connections")
	b.ReportMetric(float64(rep.TotalEdges)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

func BenchmarkSec7AeliteMesochronous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Sec7Aelite(experiments.Sec7Seed, 500, core.Mesochronous, false, sec7MeasureNs)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.AllMet() {
			b.Fatal("mesochronous aelite missed a requirement")
		}
	}
}

func BenchmarkSec7AetherealBE(b *testing.B) {
	var viol int
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Sec7BEFactor(experiments.Sec7Seed, 500, sec7MeasureNs, experiments.Sec7BEOpportunism)
		if err != nil {
			b.Fatal(err)
		}
		viol = len(rep.Violations())
		if viol == 0 {
			b.Fatal("BE met everything at 500 MHz; no contrast")
		}
	}
	b.ReportMetric(float64(viol), "violations@500MHz")
}

func BenchmarkSec7FrequencyScan(b *testing.B) {
	var crossover float64
	for i := 0; i < b.N; i++ {
		_, c, err := experiments.FrequencyScan(experiments.Sec7Seed, []float64{500, 900, 1000}, sec7MeasureNs, parallel.Jobs(0))
		if err != nil {
			b.Fatal(err)
		}
		crossover = c
	}
	b.ReportMetric(crossover, "crossoverMHz")
}

// renderScan fixes a byte representation of a frequency scan so serial and
// parallel sweeps can be compared exactly, not approximately.
func renderScan(points []experiments.ScanPoint, crossover float64) []byte {
	var buf bytes.Buffer
	for _, p := range points {
		fmt.Fprintf(&buf, "%.3f %v %d %.6f\n", p.FreqMHz, p.AllMet, p.Violations, p.WorstExcessNs)
	}
	fmt.Fprintf(&buf, "crossover %.3f\n", crossover)
	return buf.Bytes()
}

// BenchmarkParallelSweep runs the Section VII frequency scan once with one
// worker and once with eight, asserts the two scan tables are
// byte-identical (the sweep runner's determinism contract), and reports
// the wall-clock speedup. On hardware with at least 8 CPUs the speedup
// must reach 3x; on smaller hosts the assertion is informational, because
// a worker pool cannot conjure cores (the byte-identity assertion holds
// everywhere).
func BenchmarkParallelSweep(b *testing.B) {
	freqs := []float64{500, 600, 650, 700, 800, 850, 900, 1000}
	const measureNs = 10000
	var speedup float64
	for i := 0; i < b.N; i++ {
		start := time.Now()
		p1, c1, err := experiments.FrequencyScan(experiments.Sec7Seed, freqs, measureNs, 1)
		if err != nil {
			b.Fatal(err)
		}
		serial := time.Since(start)
		start = time.Now()
		p8, c8, err := experiments.FrequencyScan(experiments.Sec7Seed, freqs, measureNs, 8)
		if err != nil {
			b.Fatal(err)
		}
		par := time.Since(start)
		if !bytes.Equal(renderScan(p1, c1), renderScan(p8, c8)) {
			b.Fatalf("-j 1 and -j 8 scans diverge:\n%s\nvs\n%s", renderScan(p1, c1), renderScan(p8, c8))
		}
		speedup = serial.Seconds() / par.Seconds()
	}
	b.ReportMetric(speedup, "speedup-j8/j1")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cpus")
	b.ReportMetric(float64(runtime.NumCPU()), "host-cpus")
	// The >=3x assertion arms only with enough parallelism to satisfy it;
	// the armed/skipped status is reported as a metric so the CI artifact
	// records which regime this run measured — a disarmed run must never
	// read as a passing assertion.
	if armed := runtime.GOMAXPROCS(0) >= 8; armed {
		b.ReportMetric(1, "assert3x-armed")
		if speedup < 3 {
			b.Fatalf("parallel sweep speedup %.2fx at -j 8 on %d CPUs; want >= 3x",
				speedup, runtime.GOMAXPROCS(0))
		}
	} else {
		b.ReportMetric(0, "assert3x-armed")
		b.Logf("SKIPPED the >=3x assertion: GOMAXPROCS=%d on a %d-CPU host (needs >= 8); measured %.2fx at -j 8 (informational)",
			runtime.GOMAXPROCS(0), runtime.NumCPU(), speedup)
	}
}

// --- ablations ----------------------------------------------------------

// BenchmarkAblationTableSize sweeps the TDM table size for a mid-size
// workload: smaller tables give coarser bandwidth granularity (more
// over-allocation), larger tables longer worst-case waits for few-slot
// connections. The four table sizes are independent builds fanned across
// the sweep runner; each point owns a private engine.
func BenchmarkAblationTableSize(b *testing.B) {
	sizes := []int{16, 32, 64, 128}
	for i := 0; i < b.N; i++ {
		type point struct {
			infeasible bool
			met        bool
		}
		points, err := parallel.Map(parallel.Jobs(0), len(sizes), func(i int) (point, error) {
			m := topology.NewMesh(3, 2, 2)
			uc := spec.Random(spec.RandomConfig{
				Name: "abl", Seed: 5, IPs: 12, Apps: 2, Conns: 16,
				MinRateMBps: 15, MaxRateMBps: 120,
				MinLatencyNs: 300, MaxLatencyNs: 900,
			})
			spec.MapIPsByTraffic(uc, m)
			cfg := core.Config{TableSize: sizes[i]}
			n, err := core.Build(m, uc, cfg)
			if err != nil {
				return point{infeasible: true}, nil // coarse tables may not place
			}
			return point{met: n.Run(4000, 15000).AllMet()}, nil
		})
		if err != nil {
			b.Fatal(err)
		}
		for j, p := range points {
			if !p.infeasible && !p.met {
				b.Fatalf("requirements missed at table size %d", sizes[j])
			}
		}
	}
	b.ReportMetric(float64(len(sizes)), "points")
}

// BenchmarkAblationFIFODelay compares the two FIFO forwarding delays the
// paper admits (1-2 cycles) on the mesochronous network, both points
// through the sweep runner.
func BenchmarkAblationFIFODelay(b *testing.B) {
	delays := []int{1, 2}
	for i := 0; i < b.N; i++ {
		met, err := parallel.Map(parallel.Jobs(0), len(delays), func(i int) (bool, error) {
			m := topology.NewMesh(3, 2, 2)
			uc := spec.Random(spec.RandomConfig{
				Name: "fifo", Seed: 5, IPs: 12, Apps: 2, Conns: 12,
				MinRateMBps: 15, MaxRateMBps: 100,
				MinLatencyNs: 300, MaxLatencyNs: 900,
			})
			spec.MapIPsByTraffic(uc, m)
			cfg := core.Config{Mode: core.Mesochronous, FIFOForwardCycles: delays[i], PhaseSeed: 3}
			n, err := core.Build(m, uc, cfg)
			if err != nil {
				return false, err
			}
			return n.Run(4000, 15000).AllMet(), nil
		})
		if err != nil {
			b.Fatal(err)
		}
		for j, ok := range met {
			if !ok {
				b.Fatalf("requirements missed with %d-cycle FIFO delay", delays[j])
			}
		}
	}
	b.ReportMetric(float64(len(delays)), "points")
}

// --- micro-benchmarks ----------------------------------------------------

func BenchmarkRouterStep(b *testing.B) {
	layout := phit.DefaultLayout
	c := router.NewCore("r", 6, layout)
	in := make([]phit.Phit, 6)
	hdr, _ := layout.Encode([]int{3}, 0, 0)
	in[0] = phit.Phit{Valid: true, Kind: phit.Header, Data: hdr}
	var out []phit.Phit
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%3 == 0 {
			in[0] = phit.Phit{Valid: true, Kind: phit.Header, Data: hdr}
		} else {
			in[0] = phit.Phit{Valid: true, Kind: phit.Payload, EoP: i%3 == 2}
		}
		out = c.Step(in, out)
	}
}

func BenchmarkEngineSynchronous(b *testing.B) {
	// A full Section VII network, cost per simulated cycle.
	m := experiments.Sec7Mesh()
	cfg := core.Config{Transactional: true}
	core.PrepareTopology(m, cfg)
	uc, err := experiments.Sec7UseCase(m, experiments.Sec7Seed)
	if err != nil {
		b.Fatal(err)
	}
	n, err := core.Build(m, uc, cfg)
	if err != nil {
		b.Fatal(err)
	}
	eng := n.Engine()
	period := n.BaseClock().Period
	eng.Run(1000 * period) // prime
	primed := eng.Edges()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Run(eng.Now() + period)
	}
	b.ReportMetric(float64(eng.Edges()-primed)/b.Elapsed().Seconds(), "edges/s")
}

func BenchmarkEngineMesochronous(b *testing.B) {
	// The same Section VII network with per-tile clock phases and link
	// pipeline stages: many distinct clock domains, the worst case for
	// the engine's edge scheduler.
	m := experiments.Sec7Mesh()
	cfg := core.Config{Transactional: true, Mode: core.Mesochronous, PhaseSeed: 7}
	core.PrepareTopology(m, cfg)
	uc, err := experiments.Sec7UseCase(m, experiments.Sec7Seed)
	if err != nil {
		b.Fatal(err)
	}
	n, err := core.Build(m, uc, cfg)
	if err != nil {
		b.Fatal(err)
	}
	eng := n.Engine()
	period := n.BaseClock().Period
	eng.Run(1000 * period) // prime
	primed := eng.Edges()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Run(eng.Now() + period)
	}
	b.ReportMetric(float64(eng.Edges()-primed)/b.Elapsed().Seconds(), "edges/s")
}

// benchFastReplay builds the Section VII CBR workload twice — once
// cycle-accurate, once with the fast-replay compiler — primes the fast
// network until the compiler engages, measures the cycle-accurate cost
// per simulated cycle outside the timed loop, then times the engaged fast
// path per cycle plus the Sync that materialises what it fast-forwarded,
// and reports the speedup over both. The CBR workload is the honest
// comparison base: the default transactional workload's byte-exact rates
// are globally aperiodic, so the compiler (correctly) never engages there
// and falls back to cycle-accurate execution (see EXPERIMENTS.md).
func benchFastReplay(b *testing.B, mode core.Mode) {
	slow, _, err := experiments.BuildSec7CBR(experiments.Sec7Seed, mode, false)
	if err != nil {
		b.Fatal(err)
	}
	fast, _, err := experiments.BuildSec7CBR(experiments.Sec7Seed, mode, true)
	if err != nil {
		b.Fatal(err)
	}
	period := fast.BaseClock().Period

	// Prime until the compiler has recorded and verified a hyperperiod.
	feng := fast.Engine()
	for i := 0; i < 200 && !fast.Replay().Engaged(); i++ {
		feng.Run(feng.Now() + 1000*period)
	}
	if !fast.Replay().Engaged() {
		inert, why := fast.Replay().Inert()
		b.Fatalf("fast path never engaged (inert=%v %q)", inert, why)
	}

	// Cycle-accurate reference cost per cycle, measured on the twin.
	seng := slow.Engine()
	seng.Run(1000 * period) // prime past start-up transients
	const refCycles = 2000
	start := time.Now()
	seng.Run(seng.Now() + refCycles*period)
	slowNsPerCycle := float64(time.Since(start).Nanoseconds()) / refCycles

	primed := feng.Edges()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feng.Run(feng.Now() + period)
	}
	b.StopTimer()
	replayNs := b.Elapsed().Nanoseconds()
	b.ReportMetric(float64(feng.Edges()-primed)/b.Elapsed().Seconds(), "edges/s")
	// Landing the fast-forwarded state is part of what a replayed run
	// costs — every report and statistics reset pays it — so it is timed
	// and counted in the speedup.
	b.StartTimer()
	feng.Sync()
	b.StopTimer()
	fastNsPerCycle := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds()-replayNs), "materialise-ns")
	b.ReportMetric(slowNsPerCycle, "slow-ns/cycle")
	if fastNsPerCycle > 0 {
		b.ReportMetric(slowNsPerCycle/fastNsPerCycle, "speedup")
	}
	st := fast.Replay().ProgStats()
	b.ReportMetric(float64(st.ReplayedInstants), "replayed-instants")
}

func BenchmarkEngineSynchronousFast(b *testing.B) {
	benchFastReplay(b, core.Synchronous)
}

func BenchmarkEngineMesochronousFast(b *testing.B) {
	benchFastReplay(b, core.Mesochronous)
}

// BenchmarkTraceOverhead measures what the observability layer costs on
// the mesochronous Section VII network and asserts its budget: a run with
// an attached streaming metrics sink stays within 10% of the untraced
// run. The untraced engine *is* the disabled-tracing path (every emission
// site reduced to a nil test), so the pair also bounds the zero-cost
// claim. Many short trials alternate run order and each variant is
// summarised by the mean of its fastest half: CPU steal and scheduler
// preemption only ever inflate a trial, so trimming removes the spikes
// while averaging the clean bulk keeps the estimate tight — a lone min
// would itself be a noisy extreme, and a plain mean absorbs every spike.
// The assertion lives in a benchmark, not a test, so plain
// `go test ./...` cannot flake under load — CI runs it explicitly with
// -bench BenchmarkTraceOverhead -benchtime 1x.
func BenchmarkTraceOverhead(b *testing.B) {
	build := func(attachSink bool) *sim.Engine {
		m := experiments.Sec7Mesh()
		cfg := core.Config{Transactional: true, Mode: core.Mesochronous, PhaseSeed: 7}
		core.PrepareTopology(m, cfg)
		uc, err := experiments.Sec7UseCase(m, experiments.Sec7Seed)
		if err != nil {
			b.Fatal(err)
		}
		n, err := core.Build(m, uc, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if attachSink {
			bus := trace.NewBus()
			trace.NewMetrics(bus) // streaming aggregation, no event retention
			n.AttachTracer(bus)
		}
		eng := n.Engine()
		eng.Run(1000 * n.BaseClock().Period) // prime
		return eng
	}
	plain := build(false)
	traced := build(true)
	period := clock.Time(clock.PeriodFromMHz(500))

	const trials = 40
	const cycles = 100
	timeRun := func(eng *sim.Engine) time.Duration {
		s := time.Now()
		eng.Run(eng.Now() + cycles*period)
		return time.Since(s)
	}
	var dPlain, dTraced []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 0; t < trials; t++ {
			if t%2 == 0 {
				dPlain = append(dPlain, float64(timeRun(plain)))
				dTraced = append(dTraced, float64(timeRun(traced)))
			} else {
				dTraced = append(dTraced, float64(timeRun(traced)))
				dPlain = append(dPlain, float64(timeRun(plain)))
			}
		}
	}
	b.StopTimer()
	trimmedMean := func(ds []float64) float64 {
		sort.Float64s(ds)
		keep := ds[:(len(ds)+1)/2] // fastest half; the rest is steal/preemption
		sum := 0.0
		for _, d := range keep {
			sum += d
		}
		return sum / float64(len(keep))
	}
	ratio := trimmedMean(dTraced) / trimmedMean(dPlain)
	b.ReportMetric(ratio, "traced/untraced")
	if ratio > 1.10 {
		b.Fatalf("tracing overhead %.1f%% exceeds the 10%% budget (trimmed means over %d trials of %d cycles)",
			(ratio-1)*100, len(dPlain), cycles)
	}
}

// BenchmarkAllocator times routing plus slot allocation of the Section VII
// use case — core.PlanAllocation, not core.Build, whose time is mostly
// instantiating the network around the allocation.
func BenchmarkAllocator(b *testing.B) {
	m := experiments.Sec7Mesh()
	// 128 is the table size Build's search settles on for this use case.
	cfg := core.Config{Transactional: true, TableSize: 128}
	core.PrepareTopology(m, cfg)
	uc, err := experiments.Sec7UseCase(m, experiments.Sec7Seed)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := core.PlanAllocation(m, uc, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(plan.Failed) != 0 {
			b.Fatalf("%d connections unplaced", len(plan.Failed))
		}
	}
}

func BenchmarkHeaderCodec(b *testing.B) {
	layout := phit.DefaultLayout
	path := []int{1, 2, 3, 0, 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := layout.Encode(path, 7, 3)
		if err != nil {
			b.Fatal(err)
		}
		for h := 0; h < len(path); h++ {
			_, w = layout.NextPort(w)
		}
	}
}

func BenchmarkSlotAllocation(b *testing.B) {
	m := topology.NewMesh(4, 3, 4)
	nis := m.AllNIs()
	var reqs []slots.Request
	for i := 0; i < 60; i++ {
		a := nis[(i*7)%len(nis)]
		c := nis[(i*13+5)%len(nis)]
		if m.Node(a).Router == m.Node(c).Router {
			continue
		}
		paths, err := route.Candidates(m, a, c, 4)
		if err != nil {
			b.Fatal(err)
		}
		reqs = append(reqs, slots.Request{Conn: phit.ConnID(i + 1), Paths: paths, Count: 1 + i%4})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := slots.Allocate(64, reqs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBisyncFIFO(b *testing.B) {
	f := sim.NewBisync[phit.Phit]("b", 4, 1000)
	now := clock.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 2000
		f.Push(now, phit.Phit{Valid: true})
		if f.Valid(now + 1000) {
			f.Pop(now + 1000)
		}
	}
}

// BenchmarkReliableOverhead measures the end-to-end reliability shell on
// the mesochronous Section VII network, both ways: with the shell
// disabled (the default; its cost is a nil check per NI receive and per
// built flit) and enabled on every connection. The disabled run is the
// baseline every other benchmark exercises, so a regression of the
// disabled path shows up in BenchmarkEngineMesochronous; this one pins
// the enabled/disabled ratio. Same trial scheme as
// BenchmarkTraceOverhead: alternate short runs, trimmed mean of the
// fastest half per variant.
func BenchmarkReliableOverhead(b *testing.B) {
	build := func(reliable bool) *sim.Engine {
		m := experiments.Sec7Mesh()
		cfg := core.Config{Transactional: true, Mode: core.Mesochronous, PhaseSeed: 7, Reliable: reliable}
		core.PrepareTopology(m, cfg)
		uc, err := experiments.Sec7UseCase(m, experiments.Sec7Seed)
		if err != nil {
			b.Fatal(err)
		}
		n, err := core.Build(m, uc, cfg)
		if err != nil {
			b.Fatal(err)
		}
		eng := n.Engine()
		eng.Run(1000 * n.BaseClock().Period) // prime
		return eng
	}
	off := build(false)
	on := build(true)
	period := clock.Time(clock.PeriodFromMHz(500))

	const trials = 40
	const cycles = 100
	timeRun := func(eng *sim.Engine) time.Duration {
		s := time.Now()
		eng.Run(eng.Now() + cycles*period)
		return time.Since(s)
	}
	var dOff, dOn []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 0; t < trials; t++ {
			if t%2 == 0 {
				dOff = append(dOff, float64(timeRun(off)))
				dOn = append(dOn, float64(timeRun(on)))
			} else {
				dOn = append(dOn, float64(timeRun(on)))
				dOff = append(dOff, float64(timeRun(off)))
			}
		}
	}
	b.StopTimer()
	trimmedMean := func(ds []float64) float64 {
		sort.Float64s(ds)
		keep := ds[:(len(ds)+1)/2]
		sum := 0.0
		for _, d := range keep {
			sum += d
		}
		return sum / float64(len(keep))
	}
	b.ReportMetric(trimmedMean(dOn)/trimmedMean(dOff), "reliable/baseline")
}
