package replay

import (
	"bytes"
	"testing"

	"repro/internal/clock"
	"repro/internal/phit"
)

func TestLCM(t *testing.T) {
	const maxH = clock.Duration(1) << 32
	cases := []struct{ a, b, want clock.Duration }{
		{0, 5, 0}, // zero operand = aperiodic
		{5, 0, 0},
		{4, 6, 12},
		{192, 256, 768}, // slot revolution x CBR pattern
		{1, 1, 1},
		{maxH, 3, 0},            // overflow past the bound
		{maxH / 2, 2, maxH / 2}, // b divides a
		{maxH/2 + 1, 2, 0},      // odd: doubling overflows the bound
	}
	for _, c := range cases {
		if got := LCM(c.a, c.b, maxH); got != c.want {
			t.Errorf("LCM(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestPatternCycles(t *testing.T) {
	cases := []struct{ p, add, den, max, want int64 }{
		{1, 1, 8, 1 << 22, 8},       // CBR 1/8 words per cycle
		{1, 3, 8, 1 << 22, 8},       // 3/8: coprime numerator, same period
		{1, 2, 8, 1 << 22, 4},       // 2/8 reduces
		{1, 0, 8, 1 << 22, 1},       // no accumulation: constant
		{6, 1, 7, 1 << 22, 42},      // burst envelope of 6 cycles
		{1, 1, 1 << 30, 1 << 22, 0}, // byte-exact rational: aperiodic
		{0, 1, 8, 1 << 22, 0},
		{1, 1, 0, 1 << 22, 0},
	}
	for _, c := range cases {
		if got := PatternCycles(c.p, c.add, c.den, c.max); got != c.want {
			t.Errorf("PatternCycles(%d, %d, %d, %d) = %d, want %d", c.p, c.add, c.den, c.max, got, c.want)
		}
	}
}

// TestPhitNormalisationRoundTrip: the engagement proof rests on the
// fingerprint being shift-invariant — a phit shifted by exactly one epoch
// must fingerprint identically against the shifted boundary.
func TestPhitNormalisationRoundTrip(t *testing.T) {
	const h = clock.Duration(9000)
	base := map[phit.ConnID]int64{3: 100}
	ctx0 := &Ctx{Now: 20000, SeqBase: func(c phit.ConnID) int64 { return base[c] }}
	ctx1 := &Ctx{Now: 20000 + clock.Time(h), SeqBase: func(c phit.ConnID) int64 { return base[c] + 7 }}
	s := &Shift{Epochs: 1, DT: h, DSeq: func(c phit.ConnID) int64 { return 7 }}

	phits := []phit.Phit{
		{}, // invalid: must encode as one byte and shift to itself
		{Valid: true, Kind: phit.Header, Data: 0x55aa, SB: 1},
		{Valid: true, Kind: phit.Payload, Data: phit.Word(103), EoP: true,
			Meta: phit.Meta{Conn: 3, Seq: 103, Injected: 19500, Sent: 19900}},
		{Valid: true, Kind: phit.Payload, Data: phit.Word(104),
			Meta: phit.Meta{Conn: 3, Seq: 104, Injected: 0, Sent: 19900}}, // zero time stays zero
	}
	for i, p := range phits {
		before := AppendPhit(nil, p, ctx0)
		after := AppendPhit(nil, ShiftPhit(p, s), ctx1)
		if !bytes.Equal(before, after) {
			t.Errorf("phit %d: fingerprint not shift-invariant:\n  %x\n  %x", i, before, after)
		}
		if !p.Valid && len(before) != 1 {
			t.Errorf("invalid phit encodes as %d bytes, want 1", len(before))
		}
	}

	// A genuinely different phit must not collide.
	a := AppendPhit(nil, phits[2], ctx0)
	mut := phits[2]
	mut.Meta.Injected += 500
	b := AppendPhit(nil, mut, ctx0)
	if bytes.Equal(a, b) {
		t.Error("distinct injection instants fingerprint identically")
	}
}

func TestMetaRoundTrip(t *testing.T) {
	const h = clock.Duration(4000)
	ctx0 := &Ctx{Now: 8000, SeqBase: func(phit.ConnID) int64 { return 40 }}
	ctx1 := &Ctx{Now: 8000 + clock.Time(h), SeqBase: func(phit.ConnID) int64 { return 42 }}
	s := &Shift{Epochs: 1, DT: h, DSeq: func(phit.ConnID) int64 { return 2 }}
	m := phit.Meta{Conn: 9, Seq: 41, Injected: 7500, Sent: 0}
	before := AppendMeta(nil, m, ctx0)
	after := AppendMeta(nil, ShiftMeta(m, s), ctx1)
	if !bytes.Equal(before, after) {
		t.Errorf("meta fingerprint not shift-invariant:\n  %x\n  %x", before, after)
	}
	if got := ShiftMeta(m, s).Injected; got != 7500+clock.Time(h) {
		t.Errorf("Injected shifted to %d", got)
	}
	if got := ShiftMeta(m, s).Sent; got != 0 {
		t.Errorf("zero Sent must stay zero, got %d", got)
	}
}

func TestShiftTimePreservesUnset(t *testing.T) {
	if got := ShiftTime(0, 5000); got != 0 {
		t.Errorf("ShiftTime(0) = %d", got)
	}
	if got := ShiftTime(1, 5000); got != 5001 {
		t.Errorf("ShiftTime(1) = %d", got)
	}
	a := AppendTime(nil, 0, &Ctx{Now: 1000})
	b := AppendTime(nil, 1000, &Ctx{Now: 1000}) // equal to the boundary
	if bytes.Equal(a, b) {
		t.Error("unset time is indistinguishable from the boundary instant")
	}
}

// TestAppendPhitSeesEveryField: every field of a valid phit moves its
// encoding, so a wire the program fingerprints hides nothing.
func TestAppendPhitSeesEveryField(t *testing.T) {
	ctx := &Ctx{Now: 20000, SeqBase: func(phit.ConnID) int64 { return 0 }}
	p := phit.Phit{Valid: true, Kind: phit.Header, Data: 9, SB: 1,
		Meta: phit.Meta{Conn: 3, Seq: 5, Injected: 19500, Sent: 19900}}
	want := AppendPhit(nil, p, ctx)
	for _, c := range []struct {
		field  string
		change func(p *phit.Phit)
	}{
		{"Valid", func(p *phit.Phit) { p.Valid = false }},
		{"EoP", func(p *phit.Phit) { p.EoP = true }},
		{"Kind", func(p *phit.Phit) { p.Kind = phit.CreditOnly }},
		{"Data", func(p *phit.Phit) { p.Data++ }},
		{"SB", func(p *phit.Phit) { p.SB++ }},
		{"Meta.Conn", func(p *phit.Phit) { p.Meta.Conn++ }},
		{"Meta.Seq", func(p *phit.Phit) { p.Meta.Seq++ }},
		{"Meta.Injected", func(p *phit.Phit) { p.Meta.Injected++ }},
		{"Meta.Sent", func(p *phit.Phit) { p.Meta.Sent++ }},
	} {
		q := p
		c.change(&q)
		if bytes.Equal(AppendPhit(nil, q, ctx), want) {
			t.Errorf("%s: the encoding did not change", c.field)
		}
	}
}
