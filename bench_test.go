// The benchmarks bench/ cannot express: the trace-overhead budget CI
// gates on, the two ablations (they sweep a core.Config field the
// benchmark's workloads hold fixed), and two micro-measurements with no
// per-layer metric there. Everything else — end-to-end times, per-layer
// costs, the figures' run times — is bench/'s (go run -C bench . -trace 1);
// the paper's tables and figures themselves come from aelite-exp <fig>
// (see EXPERIMENTS.md for the mapping). Run with:
//
//	go test -run xxx -bench . -benchmem .
package repro

import (
	"sort"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/parallel"
	"repro/internal/phit"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/trace"
)

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
// baseline every bench/ workload exercises, so a regression of the
// disabled path shows up in its sim.meso.ns_per_edge; this one pins the
// enabled/disabled ratio. Same trial scheme as
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
