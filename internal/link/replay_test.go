package link

import (
	"bytes"
	"testing"

	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/replay"
	"repro/internal/sim"
)

// TestReplayFingerprintSeesEveryField changes one architectural field of
// a stage at a time and requires the fingerprint of its writer tap and
// reader FSM to change with it. Left out by design: the maxOcc ratchet,
// which ReplayMark judges; and the FIFO's own high-water mark, read only
// by invariant checkers, which keep the program inert.
func TestReplayFingerprintSeesEveryField(t *testing.T) {
	ctx := &replay.Ctx{Now: 1000, SeqBase: func(phit.ConnID) int64 { return 0 }}
	word := phit.Phit{Valid: true, Kind: phit.Payload, Data: 7, Meta: phit.Meta{Conn: 1, Seq: 7, Injected: 600}}
	fingerprint := func(s *Stage) []byte {
		return s.fsm.ReplayFingerprint(ctx, s.tap.ReplayFingerprint(ctx, nil))
	}
	base := func() *Stage {
		clk := clock.New("c", 2000, 0)
		s := NewStage("st", sim.NewWire[phit.Phit]("in"), sim.NewWire[phit.Phit]("out"), clk, clk, 2000, nil)
		s.fifo.Push(900, word)
		return s
	}
	queued := func(f func(p *phit.Phit, pushed, visible *clock.Time)) func(s *Stage) {
		return func(s *Stage) {
			s.fifo.Adjust(func(p phit.Phit, pushed, visible clock.Time) (phit.Phit, clock.Time, clock.Time) {
				f(&p, &pushed, &visible)
				return p, pushed, visible
			})
		}
	}
	want := fingerprint(base())
	for _, c := range []struct {
		field  string
		change func(s *Stage)
	}{
		{"FIFO length", func(s *Stage) { s.fifo.Push(950, word) }},
		{"FIFO word", queued(func(p *phit.Phit, _, _ *clock.Time) { p.Kind = phit.Padding })},
		{"FIFO word metadata", queued(func(p *phit.Phit, _, _ *clock.Time) { p.Meta.Injected++ })},
		{"FIFO push instant", queued(func(_ *phit.Phit, pushed, _ *clock.Time) { *pushed++ })},
		{"FIFO visibility instant", queued(func(_ *phit.Phit, _, visible *clock.Time) { *visible++ })},
		{"FIFO forwarding delay", func(s *Stage) { s.fifo.SetForwardDelay(2500) }},
		{"reader forwarding", func(s *Stage) { s.fsm.forwarding = true }},
	} {
		s := base()
		c.change(s)
		if bytes.Equal(fingerprint(s), want) {
			t.Errorf("%s: the fingerprint did not change", c.field)
		}
	}
}
