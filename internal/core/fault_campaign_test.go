package core

import (
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/fault"
)

// buildMesoWithFaults assembles the small mesochronous mesh with the given
// checkerboard skew override and reporter.
func buildMesoWithFaults(t *testing.T, skewPS int64, rep fault.Reporter) *Network {
	t.Helper()
	m, uc := smallUseCase(t, 6)
	cfg := Config{Mode: Mesochronous, FaultReporter: rep, SkewOverridePS: skewPS}
	n, err := Build(m, uc, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n
}

// TestCampaignByteIdenticalSummaries: the acceptance criterion for
// reproducibility — two campaigns with the same plan and seed on the same
// network render byte-identical summaries; a different seed does not.
func TestCampaignByteIdenticalSummaries(t *testing.T) {
	summary := func(seed int64) string {
		plan, err := fault.ParseSpec("drop@6000:l0.:2;random:5", seed)
		if err != nil {
			t.Fatal(err)
		}
		col := fault.NewCollector()
		n := buildMesoWithFaults(t, 0, col)
		n.AddInvariantCheckers(col)
		campaign := fault.NewCampaign(plan, col)
		if err := campaign.Arm(n.Engine(), n.FaultTargets()); err != nil {
			t.Fatal(err)
		}
		n.Run(4000, 20000)
		var b strings.Builder
		campaign.Summarize().Write(&b)
		return b.String()
	}
	a, b := summary(42), summary(42)
	if a != b {
		t.Errorf("same seed, different summaries:\n--- run 1\n%s--- run 2\n%s", a, b)
	}
	if c := summary(43); c == a {
		t.Error("different seeds produced byte-identical campaigns")
	}
}

// TestSkewSweepEnvelope: the acceptance criterion for the skew campaign —
// with the checkerboard override one picosecond past half a period, the
// collecting run completes and every link stage reports at least one
// skew-bound violation; at exactly half a period nothing is reported; and
// strict mode refuses to build the out-of-envelope network at all.
func TestSkewSweepEnvelope(t *testing.T) {
	half := int64(clock.PeriodFromMHz(500)) / 2

	t.Run("inside", func(t *testing.T) {
		col := fault.NewCollector()
		n := buildMesoWithFaults(t, half, col)
		n.AddInvariantCheckers(col)
		n.Run(4000, 20000)
		if col.Total() != 0 {
			t.Errorf("violations at skew == period/2 — the bound must be inclusive: %v", col.Violations())
		}
	})

	t.Run("outside-collect", func(t *testing.T) {
		col := fault.NewCollector()
		n := buildMesoWithFaults(t, half+1, col)
		n.AddInvariantCheckers(col)
		rep := n.Run(4000, 20000) // must complete despite the violations
		if rep == nil {
			t.Fatal("no report")
		}
		stages := len(n.Stages())
		if stages == 0 {
			t.Fatal("mesochronous network has no link stages")
		}
		flagged := map[string]bool{}
		for _, v := range col.Violations() {
			if v.Kind == fault.SkewBound {
				flagged[v.Component] = true
			}
		}
		if len(flagged) != stages {
			t.Errorf("%d of %d stages reported the out-of-envelope skew", len(flagged), stages)
		}
	})

	t.Run("outside-strict", func(t *testing.T) {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("strict mode built a network one picosecond past the skew envelope")
			}
			if !strings.Contains(r.(string), "skew") {
				t.Errorf("panic %v does not mention skew", r)
			}
		}()
		buildMesoWithFaults(t, half+1, nil)
	})
}
