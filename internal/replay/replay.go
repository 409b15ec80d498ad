package replay

import (
	"repro/internal/clock"
	"repro/internal/phit"
)

// A Periodic component can participate in hyperperiod replay, through
// its four methods. Every component registered with the engine must
// implement it and report a period for a Program ever to engage; anything
// else — asynchronous wrappers, invariant checkers — makes the program
// inert. Wires need no such method: the program finds them on the engine
// and fingerprints their committed values itself.
type Periodic interface {
	// ReplayPeriod returns the component's pattern period in picoseconds:
	// the smallest duration (a multiple of its clock period) after which
	// its behaviour, given identical state, repeats. Zero means aperiodic
	// and makes the program inert; so does a mode that makes the
	// component's behaviour data-dependent (flit-level wrapping,
	// reliability retransmission), which must never be undone. The
	// program reads the period when it rescans the engine after a
	// structural change, not at every boundary.
	ReplayPeriod() clock.Duration

	// ReplayMark is called at each hyperperiod boundary. The component
	// snapshots its monotone counters, computes the per-epoch deltas since
	// the previous mark, and reports whether the elapsed epoch was
	// shift-clean: nothing in it that a repeat would not reproduce, such
	// as a high-water-mark ratchet that moved or a word with sequence
	// number 0 (ni.ConnStats.Mark). Periodicity itself is the
	// fingerprint's to prove, not the mark's. A Program only ever judges
	// an epoch it opened with a mark of its own — it marks every
	// component when it anchors, after every install, structural change,
	// materialise, tracer swap or Sync — so a component needs no
	// first-mark flag; one whose statistics a reset voids between marks
	// reports that epoch unclean.
	ReplayMark(now clock.Time) bool

	// ReplayFingerprint appends a normalised encoding of the component's
	// complete architectural state to buf: absolute times relative to
	// ctx.Now, sequence numbers relative to ctx.SeqBase of their
	// connection. Two equal fingerprints at instants one hyperperiod apart
	// prove the state is periodic.
	ReplayFingerprint(ctx *Ctx, buf []byte) []byte

	// ReplayShift fast-forwards the component's state by s.Epochs whole
	// epochs: absolute times advance by s.DT, sequence numbers by
	// s.DSeq(conn), monotone counters by s.Epochs times the per-epoch
	// delta captured at the last ReplayMark. Either way the boundary
	// snapshot ends: a zero-epoch shift changes nothing else, and is how
	// a program that goes inert stops a component logging its epoch.
	ReplayShift(s *Shift)
}

// A SeqSource exposes a connection's next payload sequence number (its
// traffic generator). The program samples all sources at each boundary to
// build the fingerprint normalisation base and the per-epoch deltas.
type SeqSource interface {
	ReplayConnSeq() (phit.ConnID, int64)
}

// Ctx is the fingerprint normalisation context: the boundary instant and
// the per-connection payload sequence base.
type Ctx struct {
	Now     clock.Time
	SeqBase func(phit.ConnID) int64
}

// Shift is the state fast-forward context. DT and DSeq are totals over all
// Epochs, not per-epoch values.
type Shift struct {
	Epochs int64
	DT     clock.Duration
	DSeq   func(phit.ConnID) int64
}

// timeUnset marks a zero Time field (never set) in fingerprints, which
// must stay distinguishable from a time equal to the boundary instant.
const timeUnset = int64(-1 << 62)

// AppendI64 appends v to buf in little-endian order.
func AppendI64(buf []byte, v int64) []byte {
	return append(buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// AppendTime appends t normalised to ctx.Now. The zero Time means "never
// set" on statistics fields and in phit metadata, and is kept distinct.
func AppendTime(buf []byte, t clock.Time, ctx *Ctx) []byte {
	if t == 0 {
		return AppendI64(buf, timeUnset)
	}
	return AppendI64(buf, int64(t-ctx.Now))
}

// ShiftTime advances a time field by dt, preserving the zero "never set"
// value.
func ShiftTime(t clock.Time, dt clock.Duration) clock.Time {
	if t == 0 {
		return 0
	}
	return t + clock.Time(dt)
}

// AppendPhit appends a normalised encoding of p. Invalid phits encode as
// a single byte so that unobservable stale fields never block engagement.
// Payload phits normalise their sequence number — and the Data word, which
// carries the sequence number by construction — against ctx.SeqBase.
func AppendPhit(buf []byte, p phit.Phit, ctx *Ctx) []byte {
	if !p.Valid {
		return append(buf, 0)
	}
	flags := byte(1)
	if p.EoP {
		flags |= 2
	}
	buf = append(buf, flags, byte(p.Kind))
	data, seq := int64(p.Data), p.Meta.Seq
	if p.Kind == phit.Payload {
		base := ctx.SeqBase(p.Meta.Conn)
		data = int64(p.Data - phit.Word(base))
		seq -= base
	}
	buf = AppendI64(buf, data)
	buf = AppendI64(buf, int64(p.SB))
	buf = AppendI64(buf, int64(p.Meta.Conn))
	buf = AppendI64(buf, seq)
	buf = AppendTime(buf, p.Meta.Injected, ctx)
	buf = AppendTime(buf, p.Meta.Sent, ctx)
	return buf
}

// ShiftPhit fast-forwards a phit's metadata: injection/send instants by
// s.DT, payload sequence numbers (and the Data word carrying them) by
// s.DSeq of the phit's connection.
func ShiftPhit(p phit.Phit, s *Shift) phit.Phit {
	if !p.Valid {
		return p
	}
	if p.Kind == phit.Payload {
		d := s.DSeq(p.Meta.Conn)
		p.Meta.Seq += d
		p.Data += phit.Word(d)
	}
	p.Meta.Injected = ShiftTime(p.Meta.Injected, s.DT)
	p.Meta.Sent = ShiftTime(p.Meta.Sent, s.DT)
	return p
}

// AppendMeta appends a normalised phit.Meta (queued NI metadata).
func AppendMeta(buf []byte, m phit.Meta, ctx *Ctx) []byte {
	base := ctx.SeqBase(m.Conn)
	buf = AppendI64(buf, int64(m.Conn))
	buf = AppendI64(buf, m.Seq-base)
	buf = AppendTime(buf, m.Injected, ctx)
	buf = AppendTime(buf, m.Sent, ctx)
	return buf
}

// ShiftMeta fast-forwards queued NI metadata.
func ShiftMeta(m phit.Meta, s *Shift) phit.Meta {
	m.Seq += s.DSeq(m.Conn)
	m.Injected = ShiftTime(m.Injected, s.DT)
	m.Sent = ShiftTime(m.Sent, s.DT)
	return m
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LCM returns the least common multiple of a and b, or 0 on overflow past
// maxH (aperiodic for the program's purposes). Zero operands yield 0.
func LCM(a, b clock.Duration, maxH clock.Duration) clock.Duration {
	if a == 0 || b == 0 {
		return 0
	}
	g := clock.Duration(gcd(int64(a), int64(b)))
	q := a / g
	if q > maxH/b {
		return 0
	}
	return q * b
}

// PatternCycles returns the number of clock cycles after which an
// accumulator that gains add units per pattern period of p cycles, carries
// modulo den, returns to its starting value: p·den/gcd(add,den). It
// returns 0 if that exceeds maxCycles (treated as aperiodic).
func PatternCycles(p, add, den, maxCycles int64) int64 {
	if p <= 0 || den <= 0 {
		return 0
	}
	k := int64(1)
	if add > 0 {
		k = den / gcd(add, den)
	}
	if p > maxCycles/k {
		return 0
	}
	return p * k
}
