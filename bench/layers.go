package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/router"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/trace"
)

// perLayer names every layer metric of the traced run. A traced run of one
// workload measures the layers that workload exercises; the contract wants
// every name in every traced report, so a metric a workload does not measure
// reads 0 there — "this layer did no work here" — and README.md says which
// workload owns which metric.
var perLayer = []metricDef{
	{Name: simKcycles.Name, Unit: simKcycles.Unit, Better: simKcycles.Better},
	{Name: jobsPerS.Name, Unit: jobsPerS.Unit, Better: jobsPerS.Better},
	{Name: "scenario.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "scenario.conns", Unit: "count", Better: "higher"},
	{Name: "spec.sec7_usecase_ms", Unit: "ms", Better: "lower"},
	{Name: "slots.greedy.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "slots.ripup.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "slots.us_per_conn", Unit: "us", Better: "lower"},
	{Name: "slots.placed", Unit: "count", Better: "higher"},
	{Name: "slots.failed", Unit: "count", Better: "lower"},
	{Name: "slots.ripups", Unit: "count", Better: "higher"},
	{Name: "slots.ripup.failed", Unit: "count", Better: "lower"},
	{Name: "slots.ripup.adopted_ratio", Unit: "ratio", Better: "higher"},
	{Name: "slots.ripup.transpose32_ms", Unit: "ms", Better: "lower"},
	{Name: "core.build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.instantiate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.report_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.sync.ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "sim.meso.ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "sim.async.ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "sim.edges", Unit: "count", Better: "lower"},
	{Name: "sim.mallocs_per_run", Unit: "count", Better: "lower"},
	{Name: "router.step_ns", Unit: "ns", Better: "lower"},
	{Name: "phit.codec_ns", Unit: "ns", Better: "lower"},
	{Name: "link.stage_edges", Unit: "count", Better: "lower"},
	{Name: "wrapper.async_over_sync_ratio", Unit: "ratio", Better: "lower"},
	{Name: "replay.engagements", Unit: "count", Better: "higher"},
	{Name: "replay.deopts", Unit: "count", Better: "lower"},
	{Name: "replay.replayed_instants", Unit: "count", Better: "higher"},
	{Name: "replay.ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "replay.speedup_vs_cycle_accurate", Unit: "ratio", Better: "higher"},
	{Name: "replay.meso.ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "mem.alloc_mb_per_job", Unit: "MB", Better: "lower"},
	{Name: "mem.mallocs_per_job", Unit: "count", Better: "lower"},
	{Name: "mem.live_heap_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.events", Unit: "count", Better: "lower"},
	{Name: "trace.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "trace.metrics_json_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.chrome_write_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.chrome_bytes", Unit: "count", Better: "lower"},
	{Name: "audit.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "audit.violations", Unit: "count", Better: "lower"},
	{Name: "backend.aelite.build_ms", Unit: "ms", Better: "lower"},
	{Name: "backend.aelite.run_ms", Unit: "ms", Better: "lower"},
	{Name: "backend.aelite.edges", Unit: "count", Better: "lower"},
	{Name: "backend.aelite.ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "backend.aelite.seam_over_direct_ratio", Unit: "ratio", Better: "lower"},
	{Name: "backend.aethereal.build_ms", Unit: "ms", Better: "lower"},
	{Name: "backend.aethereal.run_ms", Unit: "ms", Better: "lower"},
	{Name: "backend.aethereal.edges", Unit: "count", Better: "lower"},
	{Name: "backend.aethereal.ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "backend.routerless.build_ms", Unit: "ms", Better: "lower"},
	{Name: "backend.routerless.run_ms", Unit: "ms", Better: "lower"},
	{Name: "backend.routerless.edges", Unit: "count", Better: "lower"},
	{Name: "backend.routerless.ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "parallel.scan_j1_ms", Unit: "ms", Better: "lower"},
	{Name: "parallel.scan_jN_ms", Unit: "ms", Better: "lower"},
	{Name: "parallel.speedup", Unit: "ratio", Better: "higher"},
	{Name: "parallel.byte_identical", Unit: "count", Better: "higher"},
	{Name: "experiments.scale_smoke_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.compare_smoke_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.submit_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.journal_append_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.journal_append_us_p95", Unit: "us", Better: "lower"},
	{Name: "serve.journal_bytes_per_job", Unit: "count", Better: "lower"},
	{Name: "serve.replay_journal_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.job_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.nojournal_jobs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.journal_cost_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.retries", Unit: "count", Better: "lower"},
	{Name: "harness.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "harness.span_coverage", Unit: "ratio", Better: "higher"},
	{Name: "self.scenario_ms", Unit: "ms", Better: "lower"},
	{Name: "self.slots_ms", Unit: "ms", Better: "lower"},
	{Name: "self.core_ms", Unit: "ms", Better: "lower"},
	{Name: "self.sim_ms", Unit: "ms", Better: "lower"},
	{Name: "self.trace_ms", Unit: "ms", Better: "lower"},
	{Name: "self.audit_ms", Unit: "ms", Better: "lower"},
	{Name: "self.backend_ms", Unit: "ms", Better: "lower"},
	{Name: "self.serve_ms", Unit: "ms", Better: "lower"},
	{Name: "self.harness_ms", Unit: "ms", Better: "lower"},
}

// A probeRun is what a workload's probes see of the traced run and where
// they put their figures.
type probeRun struct {
	input   int64 // the pool input the extra runs use
	jobs    int   // traced jobs
	d       time.Duration
	spans   []span
	samples []sample
	m       map[string]float64
	fails   []string

	serveLoop *serveTraced // serve_small_jobs only
}

func (p *probeRun) failf(format string, args ...any) {
	p.fails = append(p.fails, fmt.Sprintf(format, args...))
}

// spanMs is the median duration of the spans with the given name.
func (p *probeRun) spanMs(name string) float64 {
	var ds []float64
	for _, s := range p.spans {
		if s.Name == name {
			ds = append(ds, float64(s.End-s.Start)/1e6)
		}
	}
	return median(ds)
}

// timeMedian runs f reps times and returns the median duration.
func timeMedian(reps int, f func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		start := time.Now()
		f()
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(median(ds))
}

// The sink levels of a differential Section VII run.
const (
	sinksNone    = iota // detached: nil emitters
	sinksMetrics        // bus + Metrics sink
	sinksAudit          // bus + Metrics sink + auditor
)

// A sec7Probe is one extra Section VII run: host time inside Run, and the
// work it covered.
type sec7Probe struct {
	run        time.Duration
	edges      int64
	events     int64
	mallocs    uint64
	violations int64
	net        *core.Network
}

// sec7Run builds the use case and times Run alone, taking the better of
// reps so a disturbed repetition does not decide a difference of two runs.
func sec7Run(p *probeRun, mode core.Mode, sinks int, measureNs float64, reps int) sec7Probe {
	const warmupNs = 2000
	var best sec7Probe
	for i := 0; i < reps; i++ {
		n, _, _, err := experiments.BuildSec7(p.input, 500, mode, false)
		if err != nil {
			p.failf("sec7 probe build: %v", err)
			return best
		}
		cur := sec7Probe{net: n}
		var metrics *trace.Metrics
		var aud *audit.Auditor
		if sinks > sinksNone {
			bus := trace.NewBus()
			metrics = trace.NewMetrics(bus)
			if sinks == sinksAudit {
				aud = audit.Attach(n, bus, fault.NewCollector(), audit.Options{})
			}
			n.AttachTracer(bus)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e0 := n.Engine().Edges()
		start := time.Now()
		n.Run(warmupNs, measureNs)
		cur.run = time.Since(start)
		cur.edges = n.Engine().Edges() - e0
		runtime.ReadMemStats(&after)
		cur.mallocs = after.Mallocs - before.Mallocs
		if metrics != nil {
			cur.events = metrics.Events()
		}
		if aud != nil {
			cur.violations = aud.Violations()
		}
		if i == 0 || cur.run < best.run {
			best = cur
		}
	}
	return best
}

// probeSyncAudit owns spec, core, the synchronous engine, router/phit, and
// the trace and audit differentials.
func probeSyncAudit(p *probeRun) {
	m := experiments.Sec7Mesh()
	core.PrepareTopology(m, core.Config{FreqMHz: 500, Transactional: true})
	usecase := timeMedian(5, func() {
		if _, err := experiments.Sec7UseCase(m, p.input); err != nil {
			p.failf("Sec7UseCase: %v", err)
		}
	})
	p.m["spec.sec7_usecase_ms"] = ms(usecase)
	p.m["core.build_ms"] = p.spanMs("experiments.BuildSec7")
	p.m["core.report_ms"] = p.spanMs("Report.Write")
	p.m["trace.metrics_json_ms"] = p.spanMs("Metrics.Report+WriteJSON")

	const measureNs = 50000
	plain := sec7Run(p, core.Synchronous, sinksNone, measureNs, 3)
	traced := sec7Run(p, core.Synchronous, sinksMetrics, measureNs, 3)
	audited := sec7Run(p, core.Synchronous, sinksAudit, measureNs, 3)
	p.m["sim.sync.ns_per_edge"] = nsPer(plain.run, plain.edges)
	p.m["sim.mallocs_per_run"] = float64(plain.mallocs)
	p.m["trace.ns_per_event"] = nsPer(traced.run-plain.run, traced.events)
	p.m["audit.ns_per_event"] = nsPer(audited.run-traced.run, audited.events)
	p.m["audit.violations"] = float64(audited.violations)

	// core.instantiate_ms is derived: what Build spends beyond generating
	// the use case and planning the allocation at the table size it chose.
	if plain.net != nil {
		uc, err := experiments.Sec7UseCase(m, p.input)
		if err == nil {
			cfg := core.Config{FreqMHz: 500, Transactional: true,
				TableSize: plain.net.InjectionTable(m.AllNIs()[0]).Size()}
			plan := timeMedian(3, func() {
				if _, err := core.PlanAllocation(m, uc, cfg); err != nil {
					p.failf("PlanAllocation: %v", err)
				}
			})
			p.m["core.instantiate_ms"] = p.m["core.build_ms"] - ms(usecase) - ms(plan)
		}
	}

	// The Chrome sink keeps every event, so its window is short.
	if n, _, _, err := experiments.BuildSec7(p.input, 500, core.Synchronous, false); err == nil {
		bus := trace.NewBus()
		chrome := trace.NewChrome(bus)
		chrome.SetFlitCycle(phit.FlitWords * int64(n.BaseClock().Period))
		n.AttachTracer(bus)
		n.Run(2000, 20000)
		var written int64
		p.m["trace.chrome_write_ms"] = ms(timeMedian(1, func() { written, err = chrome.WriteTo(io.Discard) }))
		p.m["trace.chrome_bytes"] = float64(written)
		if err != nil {
			p.failf("Chrome.WriteTo: %v", err)
		}
	}

	const iters = 1 << 20
	layout := phit.DefaultLayout
	c := router.NewCore("r", 6, layout)
	in := make([]phit.Phit, 6)
	hdr, _ := layout.Encode([]int{3}, 0, 0) // a one-hop path always encodes
	var out []phit.Phit
	step := timeMedian(1, func() {
		for i := 0; i < iters; i++ {
			if i%3 == 0 {
				in[0] = phit.Phit{Valid: true, Kind: phit.Header, Data: hdr}
			} else {
				in[0] = phit.Phit{Valid: true, Kind: phit.Payload, EoP: i%3 == 2}
			}
			out = c.Step(in, out)
		}
	})
	p.m["router.step_ns"] = nsPer(step, iters)
	path := []int{1, 2, 3, 0, 2}
	codec := timeMedian(1, func() {
		for i := 0; i < iters; i++ {
			w, err := layout.Encode(path, 7, 3)
			if err != nil {
				p.failf("header encode: %v", err)
				return
			}
			for h := 0; h < len(path); h++ {
				_, w = layout.NextPort(w)
			}
		}
	})
	p.m["phit.codec_ns"] = nsPer(codec, iters)
}

// probeAsync owns the multi-clock engine paths: asynchronous wrappers from
// its own jobs, mesochronous link stages and the synchronous base from
// detached twins over the same window.
func probeAsync(p *probeRun) {
	var simTime time.Duration
	var edges int64
	for _, s := range p.samples {
		simTime += s.o.simTime
		edges += s.o.edges
	}
	p.m["sim.async.ns_per_edge"] = nsPer(simTime, edges)
	const measureNs = 40000
	sync := sec7Run(p, core.Synchronous, sinksNone, measureNs, 3)
	meso := sec7Run(p, core.Mesochronous, sinksNone, measureNs, 3)
	p.m["sim.sync.ns_per_edge"] = nsPer(sync.run, sync.edges)
	p.m["sim.meso.ns_per_edge"] = nsPer(meso.run, meso.edges)
	p.m["link.stage_edges"] = float64(meso.edges - sync.edges)
	if base := p.m["sim.sync.ns_per_edge"]; base > 0 {
		p.m["wrapper.async_over_sync_ratio"] = p.m["sim.async.ns_per_edge"] / base
	}
}

// probeReplay owns the hyperperiod compiler: its own jobs give the engaged
// cost, a cycle-accurate twin in the same process the base of the speed-up.
func probeReplay(p *probeRun) {
	var simTime time.Duration
	var cycles int64
	for _, s := range p.samples {
		simTime += s.o.simTime
		cycles += s.o.simCycles
	}
	p.m["replay.ns_per_cycle"] = nsPer(simTime, cycles)

	const twinNs = 200000
	if n, _, err := experiments.BuildSec7CBR(p.input, core.Synchronous, false); err != nil {
		p.failf("cycle-accurate twin: %v", err)
	} else {
		d := timeMedian(1, func() { n.Run(2000, twinNs) })
		if fast := p.m["replay.ns_per_cycle"]; fast > 0 {
			p.m["replay.speedup_vs_cycle_accurate"] = nsPer(d, cyclesOf(500, 2000, twinNs)) / fast
		}
	}
	const mesoNs = 1e6
	if n, _, err := experiments.BuildSec7CBR(p.input, core.Mesochronous, true); err != nil {
		p.failf("mesochronous replay: %v", err)
	} else {
		d := timeMedian(1, func() { n.Run(2000, mesoNs) })
		p.m["replay.meso.ns_per_cycle"] = nsPer(d, cyclesOf(500, 2000, mesoNs))
		if st := n.Replay().ProgStats(); st.Engagements < 1 {
			p.failf("mesochronous replay never engaged")
		}
	}
}

// probeAlloc owns scenario and slots, and the scale study's smoke run.
func probeAlloc(p *probeRun) {
	p.m["scenario.generate_ms"] = p.spanMs("scenario.Generate") * float64(len(allocPoints))
	conns := p.m["scenario.conns"]
	if conns > 0 {
		p.m["slots.us_per_conn"] = (p.m["slots.greedy.plan_ms"] + p.m["slots.ripup.plan_ms"]) * 1e3 / conns
	}
	if failed := p.m["slots.ripup.failed"]; failed > 0 {
		p.m["slots.ripup.adopted_ratio"] = p.m["slots.ripups"] / failed
	}
	// The published scale point under rip-up, once: ten times greedy.
	_, _, d, err := planPoint(allocPoint{scenario.Transpose, 32, 32, 2400, "ripup"}, p.input, nil)
	if err != nil {
		p.failf("transpose 32x32 rip-up: %v", err)
	}
	p.m["slots.ripup.transpose32_ms"] = ms(d)
	p.m["experiments.scale_smoke_ms"] = ms(timeMedian(1, func() {
		rep, err := experiments.ScaleStudy(experiments.SmokeScaleConfig(), 1)
		if err == nil {
			err = rep.Verify()
		}
		if err != nil {
			p.failf("scale smoke: %v", err)
		}
	}))
}

// probeBackends owns the seam and, having the best-effort backend at hand,
// the parallel sweep over it and the comparison study's smoke run.
func probeBackends(p *probeRun) {
	for _, name := range backendNames {
		if e := p.m["backend."+name+".edges"]; e > 0 {
			p.m["backend."+name+".ns_per_edge"] = p.m["backend."+name+".run_ms"] * 1e6 / e
		}
	}

	// Seam against direct construction, both detached, build + run.
	seam := timeMedian(3, func() {
		j := newSimJob(nil)
		j.out.counts = map[string]float64{}
		if err := backendRun(j, "aelite", p.input, false); err != nil {
			p.failf("seam twin: %v", err)
		}
	})
	direct := timeMedian(3, func() {
		scfg := scenario.Default(scenario.Uniform, 4, 4, 24, p.input)
		s, err := scenario.Generate(scfg)
		if err != nil {
			p.failf("direct twin: %v", err)
			return
		}
		cfg := core.Config{FreqMHz: scfg.FreqMHz, WordBytes: scfg.WordBytes, TableSize: scfg.TableSize}
		m := s.Mesh()
		core.PrepareTopology(m, cfg)
		n, err := core.Build(m, s.UseCase, cfg)
		if err != nil {
			p.failf("direct twin: %v", err)
			return
		}
		n.Run(backendWarmupNs, backendWindowsNs["aelite"]).Write(io.Discard)
	})
	if direct > 0 {
		p.m["backend.aelite.seam_over_direct_ratio"] = float64(seam) / float64(direct)
	}

	freqs := []float64{500, 600, 650, 700, 800, 850, 900, 1000}
	workers := min(runtime.NumCPU(), 8)
	scan := func(jobs int) (string, time.Duration) {
		var rendered string
		d := timeMedian(1, func() {
			pts, cross, err := experiments.FrequencyScan(p.input, freqs, 5000, jobs)
			if err != nil {
				p.failf("frequency scan -j%d: %v", jobs, err)
			}
			rendered = fmt.Sprint(pts, cross)
		})
		return rendered, d
	}
	one, d1 := scan(1)
	many, dN := scan(workers)
	p.m["parallel.scan_j1_ms"] = ms(d1)
	p.m["parallel.scan_jN_ms"] = ms(dN)
	if dN > 0 {
		p.m["parallel.speedup"] = float64(d1) / float64(dN)
	}
	if one == many {
		p.m["parallel.byte_identical"] = 1
	} else {
		p.failf("frequency scan differs between -j1 and -j%d", workers)
	}
	p.m["experiments.compare_smoke_ms"] = ms(timeMedian(1, func() {
		rep, err := experiments.CompareStudy(experiments.SmokeCompareConfig(), 1)
		if err == nil {
			err = rep.Verify()
		}
		if err != nil {
			p.failf("compare smoke: %v", err)
		}
	}))
}

// probeServe owns the control plane: the traced loop's own figures, Append
// on a scratch journal, and an ephemeral twin for what the journal costs.
func probeServe(p *probeRun) {
	t := p.serveLoop
	var submits, walls []float64
	for _, j := range t.loop.jobs {
		submits = append(submits, float64(j.submit.Microseconds()))
		walls = append(walls, ms(j.wall))
	}
	p.m["serve.submit_us_p50"] = median(submits)
	p.m["serve.job_p95_ms"] = percentile(walls, 0.95)
	p.m["serve.retries"] = float64(t.stop.drain.Retries)
	p.m["serve.replay_journal_ms"] = ms(t.stop.replay)
	if n := len(t.loop.jobs) + 1; n > 0 {
		p.m["serve.journal_bytes_per_job"] = float64(t.stop.journalBytes) / float64(n)
	}

	scratch := filepath.Join(outDir, "tmp", "scratch.journal")
	j, err := serve.OpenJournal(scratch)
	if err != nil {
		p.failf("scratch journal: %v", err)
	} else {
		spec := serveSpec(1)
		spec.Normalize()
		rec := serve.Record{T: serve.RecShard, Job: serve.JobID(spec.Fingerprint()), FP: spec.Fingerprint(),
			Result: &serve.ShardResult{Name: "scratch", Conns: 4, Delivered: 100, AllMet: true, AllWithinBound: true}}
		var appends []float64
		for i := 0; i < 200; i++ {
			start := time.Now()
			if err := j.Append(rec); err != nil {
				p.failf("journal append: %v", err)
				break
			}
			appends = append(appends, float64(time.Since(start).Microseconds()))
		}
		p.m["serve.journal_append_us_p50"] = median(appends)
		p.m["serve.journal_append_us_p95"] = percentile(appends, 0.95)
		if err := errors.Join(j.Close(), os.Remove(scratch)); err != nil {
			p.failf("scratch journal: %v", err)
		}
	}

	env, err := startServe(false)
	if err != nil {
		p.failf("ephemeral twin: %v", err)
		return
	}
	loop := env.closedLoop(serveBase(p.input)+1<<19, p.d, 0, nil)
	for _, f := range loop.failures {
		p.failf("ephemeral twin: %s", f)
	}
	if _, err := env.stop(len(loop.jobs)); err != nil {
		p.failf("ephemeral twin: %v", err)
	}
	rate := float64(len(loop.jobs)) / loop.elapsed.Seconds()
	p.m["serve.nojournal_jobs_per_s"] = rate
	if journaled := float64(len(t.loop.jobs)) / t.loop.elapsed.Seconds(); journaled > 0 {
		p.m["serve.journal_cost_ratio"] = rate / journaled
	}
}

// A serveTraced is the traced closed loop and what stopping it reported.
type serveTraced struct {
	loop serveLoop
	stop serveStop
}

// layerReport is what the traced run of one workload writes to layers.json.
type layerReport struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Jobs     int                `json:"traced_jobs"`
	Metrics  map[string]float64 `json:"metrics"`
	Failures []string           `json:"failures,omitempty"`
}

// spanMetrics reduces the spans to per-layer self times per job and the
// share of job wall time the layer spans account for.
func spanMetrics(spans []span, jobs int, m map[string]float64) {
	byLayer, wall, rootSelf := layerSelf(spans, -1)
	for layer, ns := range byLayer {
		m["self."+layer+"_ms"] = float64(ns) / 1e6 / float64(jobs)
	}
	if wall > 0 {
		m["harness.span_coverage"] = 1 - float64(rootSelf)/float64(wall)
	}
}
