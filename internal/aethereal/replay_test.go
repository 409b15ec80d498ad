package aethereal

import (
	"bytes"
	"testing"

	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/replay"
)

// TestReplayFingerprintSeesEveryField changes one architectural field of
// the router or an NI at a time and requires the fingerprint to change
// with it. Replay equivalence runs cannot show this: a field left out of
// the fingerprint only does harm on a run where it alone tells two
// boundary states apart.
func TestReplayFingerprintSeesEveryField(t *testing.T) {
	ctx := &replay.Ctx{Now: 1000, SeqBase: func(phit.ConnID) int64 { return 0 }}
	fingerprint := func(h *beHarness) []byte {
		buf := h.r.ReplayFingerprint(ctx, nil)
		buf = h.a.ReplayFingerprint(ctx, buf)
		return h.b.ReplayFingerprint(ctx, buf)
	}
	// Every NI field but the queue is at its zero or initial value in the
	// base state, so each change below moves exactly one of them.
	base := func() *beHarness {
		h := newBEHarness(t, 8, 16)
		h.a.Offer(500, 1, phit.Meta{Seq: 3, Injected: 500})
		return h
	}
	shiftQueued := func(f func(m *phit.Meta, pushed, visible *clock.Time)) func(h *beHarness) {
		return func(h *beHarness) {
			h.a.outs[0].queue.Adjust(func(m phit.Meta, pushed, visible clock.Time) (phit.Meta, clock.Time, clock.Time) {
				f(&m, &pushed, &visible)
				return m, pushed, visible
			})
		}
	}
	want := fingerprint(base())
	for _, c := range []struct {
		field  string
		change func(h *beHarness)
	}{
		{"router buffered word", func(h *beHarness) {
			h.r.inBuf[0] = append(h.r.inBuf[0], phit.Phit{Valid: true, Kind: phit.Header})
		}},
		{"router latched route", func(h *beHarness) { h.r.routed[1], h.r.curOut[1] = true, 0 }},
		{"router output lock", func(h *beHarness) { h.r.locked[1] = 0 }},
		{"router round-robin pointer", func(h *beHarness) { h.r.rrPtr[0] = 1 }},
		{"router output credits", func(h *beHarness) { h.r.outCredit[1]-- }},
		{"router word to retract", func(h *beHarness) { h.r.outBusy |= 1 << 1 }},
		{"router credit to retract", func(h *beHarness) { h.r.creditBusy |= 1 }},
		{"NI link credits", func(h *beHarness) { h.a.linkCredit-- }},
		{"NI round-robin pointer", func(h *beHarness) { h.a.rr = 1 }},
		{"NI open packet", func(h *beHarness) { h.a.openConn = h.a.outs[0] }},
		{"NI open packet length", func(h *beHarness) { h.a.openWords = 2 }},
		{"NI packet being received", func(h *beHarness) { h.b.curIn = h.b.ins[0] }},
		{"NI inside a packet", func(h *beHarness) { h.b.inPacket = true }},
		{"NI word to retract", func(h *beHarness) { h.a.outBusy = true }},
		{"NI credit to retract", func(h *beHarness) { h.b.creditHigh = true }},
		{"NI queue length", func(h *beHarness) { h.a.Offer(502, 1, phit.Meta{Seq: 4, Injected: 502}) }},
		{"NI queued sequence number", shiftQueued(func(m *phit.Meta, _, _ *clock.Time) { m.Seq++ })},
		{"NI queued injection instant", shiftQueued(func(m *phit.Meta, _, _ *clock.Time) { m.Injected++ })},
		{"NI queued push instant", shiftQueued(func(_ *phit.Meta, pushed, _ *clock.Time) { *pushed++ })},
		{"NI queued visibility instant", shiftQueued(func(_ *phit.Meta, _, visible *clock.Time) { *visible++ })},
	} {
		h := base()
		c.change(h)
		if bytes.Equal(fingerprint(h), want) {
			t.Errorf("%s: the fingerprint did not change", c.field)
		}
	}
}
