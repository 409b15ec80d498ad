package router

import (
	"bytes"
	"testing"

	"repro/internal/clock"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/replay"
)

// TestReplayFingerprintSeesEveryField changes one architectural field of
// a router at a time and requires the fingerprint to change with it. Left
// out by design: sampled and outBuf, rewritten in Update before they are
// read, and the core's now, which only stamps violation reports and is
// set at every Update.
func TestReplayFingerprintSeesEveryField(t *testing.T) {
	ctx := &replay.Ctx{Now: 1000, SeqBase: func(phit.ConnID) int64 { return 0 }}
	word := phit.Phit{Valid: true, Kind: phit.Payload, Data: 7, Meta: phit.Meta{Conn: 1, Seq: 7, Injected: 600}}
	base := func() *Component {
		r := NewComponent("r", 3, phit.DefaultLayout, clock.NewMHz("clk", 500, 0))
		r.core.reg1[0] = word
		r.core.reg2[1] = stage2Reg{p: word, outPort: 2}
		return r
	}
	want := base().ReplayFingerprint(ctx, nil)
	for _, c := range []struct {
		field  string
		change func(c *Core)
	}{
		{"input register word", func(c *Core) { c.reg1[2] = word }},
		{"input register metadata", func(c *Core) { c.reg1[0].Meta.Injected++ }},
		{"switch register word", func(c *Core) { c.reg2[0].p = word }},
		{"switch register metadata", func(c *Core) { c.reg2[1].p.Meta.Sent = 700 }},
		{"switch register output port", func(c *Core) { c.reg2[1].outPort = 0 }},
		{"inside a packet", func(c *Core) { c.hpu[1].inPacket = true }},
		{"packet output port", func(c *Core) { c.hpu[1].outPort = 2 }},
		{"flit words left", func(c *Core) { c.flitLeft[0] = 2 }},
	} {
		r := base()
		c.change(r.core)
		if bytes.Equal(r.ReplayFingerprint(ctx, nil), want) {
			t.Errorf("%s: the fingerprint did not change", c.field)
		}
	}
}

// TestFlitReplayFingerprintSeesEveryField does the same for the router on
// flit links. Left out by design: inF, outF, outBuf and full, rewritten at
// every flit edge before they are read; the cached word index, re-derived
// after any jump in time; and the core's now.
func TestFlitReplayFingerprintSeesEveryField(t *testing.T) {
	ctx := &replay.Ctx{Now: 1000, SeqBase: func(phit.ConnID) int64 { return 0 }}
	base := func() *FlitComponent {
		r := NewFlitComponent("r", 3, phit.DefaultLayout, clock.NewMHz("clk", 500, 0))
		for i := 0; i < 3; i++ {
			r.ConnectIn(i, fault.NewFlitLink("in"))
			r.ConnectOut(i, fault.NewFlitLink("out"))
		}
		return r
	}
	want := base().ReplayFingerprint(ctx, nil)
	for _, c := range []struct {
		field  string
		change func(r *FlitComponent)
	}{
		{"inside a packet", func(r *FlitComponent) { r.core.hpu[1].inPacket = true }},
		{"packet output port", func(r *FlitComponent) { r.core.hpu[1].outPort = 2 }},
		{"flit words left", func(r *FlitComponent) { r.core.flitLeft[0] = 2 }},
	} {
		r := base()
		c.change(r)
		if bytes.Equal(r.ReplayFingerprint(ctx, nil), want) {
			t.Errorf("%s: the fingerprint did not change", c.field)
		}
	}
}
