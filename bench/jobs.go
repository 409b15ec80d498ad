package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"runtime"
	"time"

	"repro/internal/audit"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/routerless"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Layer names, as the repository's packages spell them. A span's layer is
// the package whose public function the harness called.
const (
	layerScenario = "scenario"
	layerSlots    = "slots"
	layerCore     = "core"
	layerSim      = "sim"
	layerTrace    = "trace"
	layerAudit    = "audit"
	layerBackend  = "backend"
	layerServe    = "serve"
	layerHarness  = "harness"
)

// An outcome is what one job reports back to the harness: the digest of its
// deterministic output, how much simulated time it covered inside Run and
// what that cost on the host, and the first output check that failed.
type outcome struct {
	digest    string
	simCycles int64         // simulated base-clock cycles, warm-up + measure
	simTime   time.Duration // host time inside Run only
	edges     int64         // engine edges dispatched inside Run
	events    int64         // trace events the Metrics sink saw
	counts    map[string]float64
	err       error
}

// tamper, when set, alters a report before it is rendered and digested. Only
// the test that shows the digest gate biting sets it.
var tamper func(*core.Report)

func cyclesOf(fMHz, warmupNs, measureNs float64) int64 {
	return int64((warmupNs + measureNs) * fMHz / 1e3)
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// A simJob is one simulating job in progress: it renders every deterministic
// output into the digest, books what Run covered, and collects failed checks.
type simJob struct {
	r     *recorder
	h     hash.Hash
	out   outcome
	check []error
}

func (j *simJob) fail(format string, args ...any) {
	j.check = append(j.check, fmt.Errorf(format, args...))
}

// run times Run alone and books the cycles and edges it covered.
func (j *simJob) run(eng *sim.Engine, fMHz, warmupNs, measureNs float64, run func() *core.Report) *core.Report {
	var rep *core.Report
	before := eng.Edges()
	start := time.Now()
	j.r.do(layerSim, "Network.Run", func() { rep = run() })
	j.out.simTime += time.Since(start)
	j.out.edges += eng.Edges() - before
	j.out.simCycles += cyclesOf(fMHz, warmupNs, measureNs)
	if tamper != nil {
		tamper(rep)
	}
	return rep
}

func (j *simJob) render(rep *core.Report, eng *sim.Engine, periodPs int64, metrics *trace.Metrics, aud *audit.Auditor) {
	j.r.do(layerCore, "Report.Write", func() { rep.Write(j.h) })
	if metrics != nil {
		j.out.events += metrics.Events()
		j.r.do(layerTrace, "Metrics.Report+WriteJSON", func() {
			if err := metrics.Report(int64(eng.Now()), periodPs).WriteJSON(j.h); err != nil {
				j.fail("metrics JSON: %v", err)
			}
		})
	}
	if aud != nil {
		j.r.do(layerAudit, "Auditor.WriteSummary", func() { aud.WriteSummary(j.h) })
		if v := aud.Violations(); v != 0 {
			j.fail("auditor recorded %d violations", v)
		}
	}
}

func (j *simJob) finish() outcome {
	j.out.digest = sum(j.h)
	j.out.err = errors.Join(j.check...)
	return j.out
}

func newSimJob(r *recorder) *simJob {
	return &simJob{r: r, h: sha256.New()}
}

// sec7Job is the paper's Section VII use case end to end. audited selects
// the aelite-sim -audit wiring (bus, Metrics sink, auditor); without it the
// network runs detached, the nil-emitter path.
func sec7Job(seed int64, mode core.Mode, audited bool, warmupNs, measureNs float64, r *recorder) outcome {
	j := newSimJob(r)
	var n *core.Network
	var err error
	r.do(layerCore, "experiments.BuildSec7", func() {
		n, _, _, err = experiments.BuildSec7(seed, 500, mode, false)
	})
	if err != nil {
		return outcome{err: fmt.Errorf("build: %w", err)}
	}
	var metrics *trace.Metrics
	var aud *audit.Auditor
	if audited {
		var bus *trace.Bus
		r.do(layerTrace, "trace.NewBus+NewMetrics", func() {
			bus = trace.NewBus()
			metrics = trace.NewMetrics(bus)
		})
		r.do(layerAudit, "audit.Attach", func() {
			aud = audit.Attach(n, bus, fault.NewCollector(), audit.Options{})
			n.AttachTracer(bus)
		})
	}
	rep := j.run(n.Engine(), 500, warmupNs, measureNs, func() *core.Report { return n.Run(warmupNs, measureNs) })
	j.render(rep, n.Engine(), int64(n.BaseClock().Period), metrics, aud)
	if !rep.AllMet() {
		j.fail("%d requirements missed", len(rep.Violations()))
	}
	if !rep.AllWithinBound() {
		j.fail("a measured latency exceeded its analytical bound")
	}
	r.sampleLive()
	runtime.KeepAlive(n)
	runtime.KeepAlive(rep)
	return j.finish()
}

// cbrReplayJob is the Section VII use case at replay-admissible CBR rates
// with the hyperperiod fast path armed; replay must actually carry the run.
func cbrReplayJob(seed int64, mode core.Mode, warmupNs, measureNs float64, r *recorder) outcome {
	j := newSimJob(r)
	var n *core.Network
	var err error
	r.do(layerCore, "experiments.BuildSec7CBR", func() {
		n, _, err = experiments.BuildSec7CBR(seed, mode, true)
	})
	if err != nil {
		return outcome{err: fmt.Errorf("build: %w", err)}
	}
	rep := j.run(n.Engine(), 500, warmupNs, measureNs, func() *core.Report { return n.Run(warmupNs, measureNs) })
	j.render(rep, n.Engine(), int64(n.BaseClock().Period), nil, nil)
	if !rep.AllMet() {
		j.fail("%d requirements missed", len(rep.Violations()))
	}
	if !rep.AllWithinBound() {
		j.fail("a measured latency exceeded its analytical bound")
	}
	p := n.Replay()
	if p == nil {
		j.fail("no replay program installed")
		return j.finish()
	}
	st := p.ProgStats()
	j.out.counts = map[string]float64{
		"replay.engagements":       float64(st.Engagements),
		"replay.deopts":            float64(st.Deopts),
		"replay.replayed_instants": float64(st.ReplayedInstants),
	}
	if st.Engagements < 1 {
		j.fail("replay never engaged")
	}
	if want := j.out.simCycles * 9 / 10; st.ReplayedInstants < want {
		j.fail("replay served %d instants, want >= %d", st.ReplayedInstants, want)
	}
	r.sampleLive()
	runtime.KeepAlive(n)
	runtime.KeepAlive(rep)
	return j.finish()
}

// An allocPoint is one allocation-only input of alloc_large.
type allocPoint struct {
	family     scenario.Family
	cols, rows int
	conns      int
	allocator  string
}

var allocPoints = []allocPoint{
	// The published scale point: wide layout, uncapped paths.
	{scenario.Uniform, 32, 32, 2400, "greedy"},
	// Saturated: dozens of connections cannot be placed and rip-up
	// searches for repairs it never adopts.
	{scenario.Transpose, 12, 12, 1400, "ripup"},
}

// planPoint generates one scenario and plans its allocation, exactly as the
// scale study's allocation-only points do.
func planPoint(p allocPoint, seed int64, r *recorder) (*scenario.Scenario, *core.Plan, time.Duration, error) {
	scfg := scenario.Default(p.family, p.cols, p.rows, p.conns, seed)
	ncfg := core.Config{FreqMHz: scfg.FreqMHz, TableSize: scfg.TableSize, Allocator: p.allocator}
	ports := p.cols + p.rows - 1
	if ports > phit.DefaultLayout.MaxHops() {
		ncfg.Layout = phit.WideLayout
		ncfg.WordBytes = 8
		scfg.WordBytes = 8
	}
	if ports > phit.WideLayout.MaxHops() {
		ncfg.UncappedPaths = true
	}
	var s *scenario.Scenario
	var err error
	r.do(layerScenario, "scenario.Generate", func() { s, err = scenario.Generate(scfg) })
	if err != nil {
		return nil, nil, 0, err
	}
	var m *topology.Mesh
	r.do(layerCore, "core.PrepareTopology", func() {
		m = s.Mesh()
		core.PrepareTopology(m, ncfg)
	})
	var plan *core.Plan
	start := time.Now()
	r.do(layerSlots, "core.PlanAllocation/"+p.allocator, func() { plan, err = core.PlanAllocation(m, s.UseCase, ncfg) })
	return s, plan, time.Since(start), err
}

// allocJob plans both allocation inputs; no network is built or simulated.
func allocJob(seed int64, r *recorder) outcome {
	out := outcome{counts: map[string]float64{}}
	h := sha256.New()
	var check []error
	for _, p := range allocPoints {
		s, plan, d, err := planPoint(p, seed, r)
		if err != nil {
			return outcome{err: fmt.Errorf("%s %dx%d: %w", p.family, p.cols, p.rows, err)}
		}
		r.do(layerSlots, "Allocation.Verify", func() { err = plan.Alloc.Verify() })
		if err != nil {
			check = append(check, fmt.Errorf("%s %dx%d: %w", p.family, p.cols, p.rows, err))
		}
		r.do(layerHarness, "render plan", func() {
			fmt.Fprintf(h, "%s %dx%d %s table %d ripups %d\nplaced %v\nfailed %v\n",
				p.family, p.cols, p.rows, plan.Allocator, plan.TableSize, plan.RipUps, plan.Placed, plan.Failed)
		})
		out.counts["scenario.conns"] += float64(len(s.UseCase.Connections))
		out.counts["slots.placed"] += float64(len(plan.Placed))
		out.counts["slots.failed"] += float64(len(plan.Failed))
		out.counts["slots.ripups"] += float64(plan.RipUps)
		out.counts["slots."+p.allocator+".plan_ms"] += ms(d)
		if p.allocator == "ripup" {
			out.counts["slots.ripup.failed"] += float64(len(plan.Failed))
		}
		r.sampleLive()
		runtime.KeepAlive(s)
		runtime.KeepAlive(plan)
	}
	out.digest = sum(h)
	out.err = errors.Join(check...)
	return out
}

// backendWindowsNs gives each backend about a third of a backends_compare
// job: the rings of the routerless overlay simulate an order of magnitude
// faster than the two routed fabrics.
var backendWindowsNs = map[string]float64{
	"aelite":     150000,
	"aethereal":  150000,
	"routerless": 1500000,
}

var backendNames = []string{"aelite", "aethereal", "routerless"}

const backendWarmupNs = 4000

// instanceEngine reaches the engine behind a seam instance, for the edge
// count; the seam itself does not expose one.
func instanceEngine(inst backend.Instance) *sim.Engine {
	switch v := inst.(type) {
	case interface{ Network() *core.Network }:
		return v.Network().Engine()
	case interface{ Network() *core.BENetwork }:
		return v.Network().Engine()
	case interface{ Network() *routerless.Network }:
		return v.Network().Engine()
	}
	return nil
}

// backendRun builds one backend through the seam and runs it under the
// shared bus wiring runSeamBackend uses. sinks false runs it detached.
func backendRun(j *simJob, name string, seed int64, sinks bool) error {
	b, err := backend.ByName(name)
	if err != nil {
		return err
	}
	scfg := scenario.Default(scenario.Uniform, 4, 4, 24, seed)
	var s *scenario.Scenario
	j.r.do(layerScenario, "scenario.Generate", func() { s, err = scenario.Generate(scfg) })
	if err != nil {
		return err
	}
	var inst backend.Instance
	buildStart := time.Now()
	j.r.do(layerBackend, "Backend.Build/"+name, func() {
		inst, err = b.Build(s.Mesh(), s.UseCase, backend.Params{
			FreqMHz: scfg.FreqMHz, WordBytes: scfg.WordBytes, TableSize: scfg.TableSize, Mode: core.Synchronous,
		})
	})
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	j.out.counts["backend."+name+".build_ms"] += ms(time.Since(buildStart))
	eng := instanceEngine(inst)
	if eng == nil {
		return fmt.Errorf("no engine behind the %s instance", name)
	}
	var metrics *trace.Metrics
	var aud *audit.Auditor
	if sinks {
		var bus *trace.Bus
		j.r.do(layerTrace, "trace.NewBus+NewMetrics", func() {
			bus = trace.NewBus()
			metrics = trace.NewMetrics(bus)
		})
		j.r.do(layerAudit, "Instance.Audit", func() {
			if b.HasBounds() {
				aud = inst.Audit(bus, fault.NewCollector(), audit.Options{})
			}
			inst.AttachTracer(bus)
		})
	}
	w := backendWindowsNs[name]
	t0, e0 := j.out.simTime, j.out.edges
	rep := j.run(eng, scfg.FreqMHz, backendWarmupNs, w, func() *core.Report { return inst.Run(backendWarmupNs, w) })
	j.out.counts["backend."+name+".run_ms"] += ms(j.out.simTime - t0)
	j.out.counts["backend."+name+".edges"] += float64(j.out.edges - e0)
	periodPs := int64(1e6 / scfg.FreqMHz)
	j.render(rep, eng, periodPs, metrics, aud)
	if b.HasBounds() {
		// Best effort is exempt: quantifying what it misses is the
		// comparison's purpose, not a failure.
		if !rep.AllMet() {
			j.fail("%s: %d requirements missed", name, len(rep.Violations()))
		}
		if !rep.AllWithinBound() {
			j.fail("%s: a measured latency exceeded its analytical bound", name)
		}
	}
	j.r.sampleLive()
	runtime.KeepAlive(inst)
	runtime.KeepAlive(rep)
	return nil
}

// backendsJob runs the same generated use case through every backend.
func backendsJob(seed int64, r *recorder) outcome {
	j := newSimJob(r)
	j.out.counts = map[string]float64{}
	for _, name := range backendNames {
		if err := backendRun(j, name, seed, true); err != nil {
			return outcome{err: fmt.Errorf("%s: %w", name, err)}
		}
	}
	return j.finish()
}
