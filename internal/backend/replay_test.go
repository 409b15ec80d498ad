package backend

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// programOf returns the replay program behind an instance (nil for a
// cycle-accurate build).
func programOf(inst Instance) *replay.Program {
	switch v := inst.(type) {
	case *aeliteInstance:
		return v.n.Replay()
	case *aetherealInstance:
		return v.n.Replay()
	case *routerlessInstance:
		return v.n.Replay()
	}
	return nil
}

// TestReplayEngagesOnPeriodicFabrics holds the default build to its
// claim on the comparison workload (uniform 4x4/24): with the trace bus,
// the metrics sink and the auditor attached, as the comparison study
// wires them, the aelite, best-effort and routerless runs each engage
// hyperperiod replay and it serves at least 90 % of the window's cycles.
func TestReplayEngagesOnPeriodicFabrics(t *testing.T) {
	const warmupNs, measureNs = 4000, 150000
	for seed := int64(2009); seed <= 2011; seed++ {
		for _, name := range []string{"aelite", "aethereal", "routerless"} {
			scfg := scenario.Default(scenario.Uniform, 4, 4, 24, seed)
			s, err := scenario.Generate(scfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := b.Build(s.Mesh(), s.UseCase, Params{FreqMHz: scfg.FreqMHz,
				WordBytes: scfg.WordBytes, TableSize: scfg.TableSize, Mode: core.Synchronous})
			if err != nil {
				t.Fatal(err)
			}
			bus := trace.NewBus()
			trace.NewMetrics(bus)
			var aud *audit.Auditor
			if b.HasBounds() {
				aud = inst.Audit(bus, fault.NewCollector(), audit.Options{})
			}
			inst.AttachTracer(bus)
			rep := inst.Run(warmupNs, measureNs)
			if aud != nil && aud.Violations() != 0 {
				t.Errorf("%s seed %d: %d audit violations", name, seed, aud.Violations())
			}
			p := programOf(inst)
			if p == nil {
				t.Fatalf("%s seed %d: no replay program installed", name, seed)
			}
			st := p.ProgStats()
			cycles := int64(measureNs * rep.FreqMHz / 1e3)
			if st.Engagements < 1 || st.ReplayedInstants < cycles*9/10 {
				inert, why := p.Inert()
				t.Errorf("%s seed %d: %d engagements, %d of %d cycles replayed (inert %v: %s)",
					name, seed, st.Engagements, st.ReplayedInstants, cycles, inert, why)
			}
		}
	}
}

// shortWarmupNs is shorter than two hyperperiods of the comparison
// workload on every fabric (the best-effort one's is 512 ns).
const shortWarmupNs = 600

// compareWindowsNs are the measurement windows of the benchmark's
// backends_compare workload, after a 4000 ns warm-up: about a third of a
// job each, the rings simulating an order of magnitude faster.
var compareWindowsNs = map[string]float64{"aelite": 150000, "aethereal": 150000, "routerless": 1500000}

// A tracedWindow is how one traced run is driven: Run(warmupNs,
// measureNs), preceded by a bare Engine.Run over splitPs when it is set,
// with a scheduled callback timerPs into the measurement when that is
// set. The window may depend on the fabric and on the hyperperiod its
// replay program compiled. A tight window audits against the fabric's
// contracts with one connection's bound cut below any latency.
type tracedWindow struct {
	name             string
	warmupNs         float64
	measureNs        func(backend string, hp clock.Duration) float64
	splitPs, timerPs clock.Time
	tight            bool
}

// tracedOutput is every output of one traced, audited run, the Chrome
// trace as its digest.
type tracedOutput struct {
	report, metrics, summary, reports []byte
	chrome                            [sha256.Size]byte
}

// tightSource states a fabric's contracts with the first connection's
// bound cut to 1 ps: every word it delivers breaks the bound.
type tightSource struct{ src audit.ContractSource }

func (s tightSource) Contracts() analysis.ContractSet {
	set := s.src.Contracts()
	set.Contracts = slices.Clone(set.Contracts)
	set.Contracts[0].BoundPs = 1
	return set
}

// contractsOf returns the fabric behind an instance that states bounds.
func contractsOf(inst Instance) audit.ContractSource {
	switch v := inst.(type) {
	case *aeliteInstance:
		return v.n
	case *routerlessInstance:
		return v.n
	}
	return nil
}

// tracedRun builds the uniform 4x4/24 workload on one fabric under a bus
// with a metrics sink, the auditor where the fabric has bounds and a
// Chrome sink, drives it through the window and renders all four.
func tracedRun(t testing.TB, name string, seed int64, cycleAccurate bool, w tracedWindow, hp clock.Duration) (tracedOutput, *replay.Program) {
	t.Helper()
	scfg := scenario.Default(scenario.Uniform, 4, 4, 24, seed)
	s, err := scenario.Generate(scfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := b.Build(s.Mesh(), s.UseCase, Params{FreqMHz: scfg.FreqMHz, WordBytes: scfg.WordBytes,
		TableSize: scfg.TableSize, Mode: core.Synchronous, CycleAccurate: cycleAccurate})
	if err != nil {
		t.Fatal(err)
	}
	period := int64(clock.PeriodFromMHz(scfg.FreqMHz))
	bus := trace.NewBus()
	met := trace.NewMetrics(bus)
	chrome := trace.NewChrome(bus)
	chrome.SetFlitCycle(phit.FlitWords * period)
	var aud *audit.Auditor
	col := fault.NewCollector()
	switch {
	case b.HasBounds() && w.tight:
		aud = audit.Attach(tightSource{contractsOf(inst)}, bus, col, audit.Options{})
	case b.HasBounds():
		aud = inst.Audit(bus, col, audit.Options{})
	}
	inst.AttachTracer(bus)
	eng := inst.Engine()
	p := programOf(inst)
	if w.splitPs > 0 {
		eng.Run(eng.Now() + w.splitPs)
		if p != nil && !p.Engaged() {
			t.Fatalf("%s seed %d: replay is not engaged at the split, so the window splits no epoch", name, seed)
		}
	}
	if w.timerPs > 0 {
		eng.At(eng.Now()+clock.Time(w.warmupNs*float64(clock.Nanosecond))+w.timerPs, func() {})
	}
	rep := inst.Run(w.warmupNs, w.measureNs(name, hp))
	var out tracedOutput
	var buf bytes.Buffer
	rep.Write(&buf)
	out.report = bytes.Clone(buf.Bytes())
	buf.Reset()
	if err := met.Report(0, period).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out.metrics = bytes.Clone(buf.Bytes())
	if aud != nil {
		buf.Reset()
		aud.WriteSummary(&buf)
		out.summary = bytes.Clone(buf.Bytes())
		if w.tight && aud.Violations() == 0 {
			t.Fatalf("%s seed %d: the tightened bound reports nothing", name, seed)
		}
		buf.Reset()
		for _, v := range col.Violations() {
			fmt.Fprintln(&buf, v)
		}
		out.reports = bytes.Clone(buf.Bytes())
	}
	h := sha256.New()
	if _, err := chrome.WriteTo(h); err != nil {
		t.Fatal(err)
	}
	copy(out.chrome[:], h.Sum(nil))
	return out, p
}

// TestTracedReplayMatchesCycleAccurate is the gate on how replay hands
// events to the trace sinks: on every fabric and seeds 2009-2011 of the
// comparison workload, a replayed run with the bus, the metrics sink and
// the auditor where the fabric has bounds (which fold whole epochs) and
// a Chrome sink (which does not) must give the same report, metrics
// JSON, audit summary and Chrome trace, byte for byte, as its
// CycleAccurate twin. Five windows: the benchmark's comparison
// windows; one whose first Engine.Run ends inside an engaged epoch, so
// the next starts mid-epoch; one with a scheduled callback after
// engagement, so replay deopts and re-engages mid-measurement; one
// that ends on an epoch boundary, so the last events any sink sees come
// from a whole-epoch stride (the warm-up's Sync re-anchors the program
// one cycle into the measurement, and the window is that cycle and 20
// hyperperiods); and one whose warm-up is shorter than two
// hyperperiods, so the program re-anchors at the warm-up's Sync before
// it ever engaged and the first epoch it judges holds connections'
// first-ever deliveries, which must keep it from engaging there. A sixth
// window audits against contracts that cut one connection's bound below
// its latency, so every replayed epoch reports: the collected reports
// must match too, and the auditor cannot fold a copy.
func TestTracedReplayMatchesCycleAccurate(t *testing.T) {
	windows := []tracedWindow{
		{name: "compare", warmupNs: 4000, measureNs: func(b string, _ clock.Duration) float64 { return compareWindowsNs[b] }},
		{name: "split", warmupNs: 4000, measureNs: func(string, clock.Duration) float64 { return 40000 }, splitPs: 60*clock.Microsecond + 1000},
		{name: "timer", warmupNs: 4000, measureNs: func(string, clock.Duration) float64 { return 40000 }, timerPs: 17*clock.Microsecond + 1000},
		{name: "boundary", warmupNs: 4000, measureNs: func(_ string, hp clock.Duration) float64 { return float64(2000+20*hp) / 1000 }},
		{name: "short-warmup", warmupNs: shortWarmupNs, measureNs: func(string, clock.Duration) float64 { return 40000 }},
		{name: "tight", warmupNs: 4000, measureNs: func(string, clock.Duration) float64 { return 40000 }, tight: true},
	}
	type run struct {
		backend string
		seed    int64
	}
	hps := map[run]clock.Duration{} // from the comparison window, the first
	for _, w := range windows {
		for _, name := range []string{"aelite", "aethereal", "routerless"} {
			for seed := int64(2009); seed <= 2011; seed++ {
				hp := hps[run{name, seed}]
				replayed, p := tracedRun(t, name, seed, false, w, hp)
				slow, _ := tracedRun(t, name, seed, true, w, hp)
				if p == nil {
					t.Fatalf("%s: no replay program installed", name)
				}
				hps[run{name, seed}] = p.Hyperperiod()
				if w.warmupNs == shortWarmupNs && clock.Time(w.warmupNs*float64(clock.Nanosecond)) >= 2*clock.Time(p.Hyperperiod()) {
					t.Fatalf("%s seed %d: the short warm-up %g ns is not shorter than two hyperperiods (%d ps)", name, seed, w.warmupNs, p.Hyperperiod())
				}
				st := p.ProgStats()
				if st.ReplayedInstants == 0 || w.timerPs > 0 && st.DeoptsBy[replay.DeoptTimer] == 0 {
					t.Fatalf("%s/%s seed %d: replay never served the window it is compared on (%+v)", w.name, name, seed, st)
				}
				where := w.name + "/" + name
				if !bytes.Equal(replayed.report, slow.report) {
					t.Errorf("%s seed %d: reports differ:\n-- replayed --\n%s\n-- cycle-accurate --\n%s", where, seed, replayed.report, slow.report)
				}
				if !bytes.Equal(replayed.metrics, slow.metrics) {
					t.Errorf("%s seed %d: metrics JSON differs:\n-- replayed --\n%s\n-- cycle-accurate --\n%s", where, seed, replayed.metrics, slow.metrics)
				}
				if !bytes.Equal(replayed.summary, slow.summary) {
					t.Errorf("%s seed %d: audit summaries differ:\n-- replayed --\n%s\n-- cycle-accurate --\n%s", where, seed, replayed.summary, slow.summary)
				}
				if !bytes.Equal(replayed.reports, slow.reports) {
					t.Errorf("%s seed %d: audit reports differ:\n-- replayed --\n%s\n-- cycle-accurate --\n%s", where, seed, replayed.reports, slow.reports)
				}
				if replayed.chrome != slow.chrome {
					t.Errorf("%s seed %d: Chrome traces differ", where, seed)
				}
			}
		}
	}
}

// BenchmarkTracedReplay is the layer benchmark of trace under replay:
// one audited, traced run of the comparison workload (seed 2009) on the
// routerless and on the aelite fabric, each in its backends_compare
// window, with the bus, the metrics sink and the auditor attached as the
// comparison wires them. It reports host time per replayed trace event:
// the run's wall time over the events the metrics sink counted. Run with
//
//	go test -run '^$' -bench BenchmarkTracedReplay -benchtime 1x ./internal/backend
func BenchmarkTracedReplay(b *testing.B) {
	for _, name := range []string{"routerless", "aelite"} {
		b.Run(name, func(b *testing.B) {
			var events int64
			var run time.Duration
			for i := 0; i < b.N; i++ {
				scfg := scenario.Default(scenario.Uniform, 4, 4, 24, 2009)
				s, err := scenario.Generate(scfg)
				if err != nil {
					b.Fatal(err)
				}
				be, err := ByName(name)
				if err != nil {
					b.Fatal(err)
				}
				inst, err := be.Build(s.Mesh(), s.UseCase, Params{FreqMHz: scfg.FreqMHz,
					WordBytes: scfg.WordBytes, TableSize: scfg.TableSize, Mode: core.Synchronous})
				if err != nil {
					b.Fatal(err)
				}
				bus := trace.NewBus()
				met := trace.NewMetrics(bus)
				aud := inst.Audit(bus, fault.NewCollector(), audit.Options{})
				inst.AttachTracer(bus)
				start := time.Now()
				inst.Run(4000, compareWindowsNs[name])
				run += time.Since(start)
				events += met.Events()
				if aud.Violations() != 0 {
					b.Fatalf("%s: %d audit violations", name, aud.Violations())
				}
			}
			b.ReportMetric(float64(run.Nanoseconds())/float64(events), "ns/event")
			b.ReportMetric(float64(events)/float64(b.N), "events/run")
		})
	}
}
