package audit_test

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// TestAuditorFoldEngages holds the auditor's fold to its gain on the
// comparison workload (uniform 4x4/24, seeds 2009-2011), in the windows
// the backends_compare benchmark runs, with the bus, the metrics sink
// and the auditor attached as the comparison wires them: on the aelite
// and the routerless fabric, replay hands the auditor epoch copies and
// it folds at least 90 % of them, with no violation. A fold that
// silently fell back to copy-by-copy delivery would still be exact; this
// test is what notices.
func TestAuditorFoldEngages(t *testing.T) {
	windowsNs := map[string]float64{"aelite": 150000, "routerless": 1500000}
	for seed := int64(2009); seed <= 2011; seed++ {
		for _, name := range []string{"aelite", "routerless"} {
			scfg := scenario.Default(scenario.Uniform, 4, 4, 24, seed)
			s, err := scenario.Generate(scfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := backend.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := b.Build(s.Mesh(), s.UseCase, backend.Params{FreqMHz: scfg.FreqMHz,
				WordBytes: scfg.WordBytes, TableSize: scfg.TableSize, Mode: core.Synchronous})
			if err != nil {
				t.Fatal(err)
			}
			bus := trace.NewBus()
			trace.NewMetrics(bus)
			aud := inst.Audit(bus, fault.NewCollector(), audit.Options{})
			inst.AttachTracer(bus)
			inst.Run(4000, windowsNs[name])
			if n := aud.Violations(); n != 0 {
				t.Errorf("%s seed %d: %d audit violations", name, seed, n)
			}
			copies, folded := audit.FoldCounts(aud)
			if copies == 0 || folded*10 < copies*9 {
				t.Errorf("%s seed %d: the auditor folded %d of the %d epoch copies replay handed it, want at least 90 %%",
					name, seed, folded, copies)
			}
			t.Logf("%s seed %d: folded %d of %d copies", name, seed, folded, copies)
		}
	}
}
