package routerless

// Hyperperiod replay support: a ring implements replay.Periodic, so the
// compiled fast path can prove the overlay periodic, fast-forward it by
// whole epochs, and fall back to cycle-accurate execution losslessly. The
// generators that feed the rings are periodic sources already.

import (
	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/replay"
)

// ReplayPeriod implements replay.Periodic: the word within the flit and
// the rotation, the only ways a ring reads absolute time, repeat after S
// flit cycles — one revolution, when every slot is back at its owner.
func (r *ring) ReplayPeriod() clock.Duration {
	return clock.Duration(r.S*phit.FlitWords) * r.net.base.Period
}

// ReplayMark implements replay.Periodic: the epoch is shift-clean when
// every carried connection's statistics are (ni.ConnStats.Mark).
func (r *ring) ReplayMark(now clock.Time) bool {
	clean := true
	for _, ci := range r.conns {
		if !ci.rx.Mark() {
			clean = false
		}
	}
	return clean
}

// appendPending appends a queued or riding word, its sequence number
// relative to base.
func appendPending(buf []byte, w pending, base int64, ctx *replay.Ctx) []byte {
	buf = replay.AppendI64(buf, w.seq-base)
	return replay.AppendTime(buf, w.injected, ctx)
}

// shiftPending fast-forwards the words of one connection.
func shiftPending(ws []pending, dseq int64, s *replay.Shift) {
	for i := range ws {
		ws[i].seq += dseq
		ws[i].injected = replay.ShiftTime(ws[i].injected, s.DT)
	}
}

// ReplayFingerprint implements replay.Periodic: rotation, flit phase, the
// cargo of every slot and every source queue, normalised to the boundary
// instant and each connection's sequence base. Measurements are excluded
// (they shift by deltas); an empty slot's stale cargo is unobservable.
func (r *ring) ReplayFingerprint(ctx *replay.Ctx, buf []byte) []byte {
	buf = replay.AppendI64(buf, int64(r.rot))
	buf = replay.AppendI64(buf, int64(r.word))
	buf = replay.AppendTime(buf, r.nextEdge, ctx)
	buf = replay.AppendI64(buf, int64(r.edgePeriod))
	for sid := range r.wheel {
		e := &r.wheel[sid]
		buf = replay.AppendI64(buf, int64(e.n))
		if e.n == 0 {
			continue
		}
		id := e.ci.spec.ID
		buf = replay.AppendI64(buf, int64(id))
		base := ctx.SeqBase(id)
		for _, w := range e.words[:e.n] {
			buf = appendPending(buf, w, base, ctx)
		}
	}
	for _, ci := range r.conns {
		buf = replay.AppendI64(buf, int64(len(ci.q)))
		base := ctx.SeqBase(ci.spec.ID)
		for _, w := range ci.q {
			buf = appendPending(buf, w, base, ctx)
		}
	}
	return buf
}

// ReplayShift implements replay.Periodic.
func (r *ring) ReplayShift(s *replay.Shift) {
	r.nextEdge = replay.ShiftTime(r.nextEdge, s.DT)
	for sid := range r.wheel {
		if e := &r.wheel[sid]; e.n > 0 {
			shiftPending(e.words[:e.n], s.DSeq(e.ci.spec.ID), s)
		}
	}
	for _, ci := range r.conns {
		shiftPending(ci.q, s.DSeq(ci.spec.ID), s)
		ci.rx.Shift(s)
	}
}
