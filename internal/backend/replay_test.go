package backend

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/trace"
)

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
			var p *replay.Program
			switch v := inst.(type) {
			case *aeliteInstance:
				p = v.n.Replay()
			case *aetherealInstance:
				p = v.n.Replay()
			case *routerlessInstance:
				p = v.n.Replay()
			}
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
