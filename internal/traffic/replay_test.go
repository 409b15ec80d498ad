package traffic

import (
	"bytes"
	"testing"

	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/replay"
)

// TestReplayFingerprintSeesEveryField changes one architectural field of
// a transactional generator at a time and requires the fingerprint to change
// with it. Left out by design: seq, the connection's sequence base that
// the program normalises every other sequence number against; the
// whole-period part of phase and the rejected count, which shift by their
// per-epoch deltas; and pos, which rewrap derives from phase.
func TestReplayFingerprintSeesEveryField(t *testing.T) {
	ctx := &replay.Ctx{Now: 1000, SeqBase: func(phit.ConnID) int64 { return 0 }}
	base := func() *Generator {
		g := newTransactional("g", clock.NewMHz("clk", 500, 0), &acceptPort{}, 1, 100, 4, 8, 2000)
		g.accNum, g.phase = 1, 3
		g.rewrap()
		return g
	}
	want := base().ReplayFingerprint(ctx, nil)
	for _, c := range []struct {
		field  string
		change func(g *Generator)
	}{
		{"accumulator", func(g *Generator) { g.accNum++ }},
		{"burst phase", func(g *Generator) { g.phase++; g.rewrap() }},
		{"start", func(g *Generator) { g.start++ }},
		{"disabled", func(g *Generator) { g.SetEnabled(false) }},
		{"rate numerator", func(g *Generator) { g.rateNum++ }},
		{"rate denominator", func(g *Generator) { g.rateDen++ }},
		{"burst on-cycles", func(g *Generator) { g.onCycles++ }},
		{"burst off-cycles", func(g *Generator) { g.offCycles++ }},
		{"burst rate numerator", func(g *Generator) { g.burstNum++ }},
	} {
		g := base()
		c.change(g)
		if bytes.Equal(g.ReplayFingerprint(ctx, nil), want) {
			t.Errorf("%s: the fingerprint did not change", c.field)
		}
	}
}
