package ni

import (
	"bytes"
	"testing"

	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/replay"
)

// TestReplayFingerprintSeesEveryField changes one architectural field of
// a sending or a receiving NI at a time and requires the fingerprint to
// change with it. Left out by design: the word and slot indices and the
// edge they were derived for (word, slot, nextEdge, edgePeriod, edgePhase),
// which Update recomputes after a time jump; the slotOf cache, re-resolved
// when a slot's owner changes; flitIndex, read only in wrapper mode, which
// never replays; the
// maxOcc ratchet, which ReplayMark judges; and the statistics, which shift
// by their per-epoch deltas.
func TestReplayFingerprintSeesEveryField(t *testing.T) {
	ctx := &replay.Ctx{Now: 1000, SeqBase: func(phit.ConnID) int64 { return 0 }}
	fingerprint := func(p *pair) []byte {
		return p.b.ReplayFingerprint(ctx, p.a.ReplayFingerprint(ctx, nil))
	}
	// A holds one queued word.
	base := func() *pair {
		p := newPair(t, 4, []int{0}, []int{2}, 16)
		if !p.a.Offer(500, 1, phit.Meta{Conn: 1, Seq: 3, Injected: 500}) {
			t.Fatal("Offer rejected")
		}
		return p
	}
	queued := func(f func(m *phit.Meta, pushed, visible *clock.Time)) func(p *pair) {
		return func(p *pair) {
			p.a.outs[0].queue.Adjust(func(m phit.Meta, pushed, visible clock.Time) (phit.Meta, clock.Time, clock.Time) {
				f(&m, &pushed, &visible)
				return m, pushed, visible
			})
		}
	}
	want := fingerprint(base())
	for _, c := range []struct {
		field  string
		change func(p *pair)
	}{
		{"open connection", func(p *pair) { p.a.openConn = 1 }},
		{"flit buffer word", func(p *pair) { p.a.flitBuf[1] = phit.Phit{Valid: true, Kind: phit.Payload, Data: 5} }},
		{"slot table owner", func(p *pair) { p.a.table.Slots[1] = 1 }},
		{"end-to-end credits", func(p *pair) { p.a.outs[0].credits-- }},
		{"send queue length", func(p *pair) { p.a.Offer(502, 1, phit.Meta{Conn: 1, Seq: 4, Injected: 502}) }},
		{"queued sequence number", queued(func(m *phit.Meta, _, _ *clock.Time) { m.Seq++ })},
		{"queued injection instant", queued(func(m *phit.Meta, _, _ *clock.Time) { m.Injected++ })},
		{"queued send instant", queued(func(m *phit.Meta, _, _ *clock.Time) { m.Sent = 700 })},
		{"queued push instant", queued(func(_ *phit.Meta, pushed, _ *clock.Time) { *pushed++ })},
		{"queued visibility instant", queued(func(_ *phit.Meta, _, visible *clock.Time) { *visible++ })},
		{"packet being received", func(p *pair) { p.b.curIn = p.b.ins[0] }},
		{"inside a packet", func(p *pair) { p.b.inPacket = true }},
		{"dropping a packet", func(p *pair) { p.b.dropPacket = true }},
		{"quiet input", func(p *pair) { p.b.quiet = true }},
		{"owed credits", func(p *pair) { p.b.ins[0].owed++ }},
	} {
		p := base()
		c.change(p)
		if bytes.Equal(fingerprint(p), want) {
			t.Errorf("%s: the fingerprint did not change", c.field)
		}
	}
}
