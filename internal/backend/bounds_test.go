package backend

import (
	"fmt"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// TestBoundsHoldForAnalysedShapes is ROADMAP item 2(c) as a property: for
// every traffic shape a backend's analysis covers, every connection stays
// within its published latency bound and the auditor finds nothing. It
// runs the five scenario families at seeds 1 and 2 on a 4x4 mesh of 16
// connections through aelite (CBR and transactional, in all three clocking
// modes) and routerless (CBR and transactional), every run audited. Both
// fabrics derive their bounds from the one slot-table analysis, so a
// transactional run is held to the burst bound on either.
func TestBoundsHoldForAnalysedShapes(t *testing.T) {
	type shape struct {
		backend string
		p       Params
	}
	var covered []shape
	for _, tx := range []bool{false, true} {
		for _, mode := range []core.Mode{core.Synchronous, core.Mesochronous, core.Asynchronous} {
			covered = append(covered, shape{"aelite", Params{Mode: mode, Transactional: tx}})
		}
	}
	for _, tx := range []bool{false, true} {
		covered = append(covered, shape{"routerless", Params{Transactional: tx}})
	}

	// run builds, audits and measures one point, returning whether every
	// connection stayed within its bound and the auditor's violation count.
	run := func(t *testing.T, s shape, fam scenario.Family, seed int64) (bool, int64) {
		t.Helper()
		b, err := ByName(s.backend)
		if err != nil {
			t.Fatal(err)
		}
		w := Workload{Scenario: string(fam), Conns: 16, Seed: seed, Cols: 4, Rows: 4}
		m, uc, p, _, err := w.Build(0)
		if err != nil {
			t.Fatal(err)
		}
		p.Mode, p.Transactional = s.p.Mode, s.p.Transactional
		inst, err := b.Build(m, uc, p)
		if err != nil {
			t.Fatal(err)
		}
		bus := trace.NewBus()
		inst.AttachTracer(bus)
		aud := inst.Audit(bus, fault.NewCollector(), audit.Options{})
		rep := inst.Run(4000, 20000)
		return rep.AllWithinBound(), aud.Violations()
	}
	for _, fam := range scenario.Families() {
		for seed := int64(1); seed <= 2; seed++ {
			for _, s := range covered {
				t.Run(fmt.Sprintf("%s/seed%d/%s/%s/tx=%v", fam, seed, s.backend, s.p.Mode, s.p.Transactional), func(t *testing.T) {
					if within, viol := run(t, s, fam, seed); !within || viol != 0 {
						t.Errorf("within bound %v, %d audit violations; want true and 0", within, viol)
					}
				})
			}
		}
	}
}
