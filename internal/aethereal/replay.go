package aethereal

// Hyperperiod replay support (doc.go, "Replay"). Left out of both
// fingerprints is per-instant scratch that is zero or rewritten before it
// is read whenever an instant has ended: a router's arrived, woken, freed
// and sampledIn, an NI's gotWord, sampledIn and sampledCredit.

import (
	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/replay"
)

var (
	_ replay.Periodic = (*Router)(nil)
	_ replay.Periodic = (*NI)(nil)
)

// ReplayPeriod implements replay.Periodic: the router never reads absolute
// time, so its behaviour repeats after one cycle given identical state.
func (r *Router) ReplayPeriod() clock.Duration { return r.clk.Period }

// ReplayMark implements replay.Periodic: the router keeps no absolute-time
// statistic, so every epoch is shift-clean.
func (r *Router) ReplayMark(now clock.Time) bool {
	r.rm.dForwarded = r.forwarded - r.rm.forwarded
	r.rm.dStalls = r.stalls - r.rm.stalls
	r.rm.forwarded, r.rm.stalls = r.forwarded, r.stalls
	return true
}

// ReplayFingerprint implements replay.Periodic: every input's buffered
// words and wormhole state, every output's credits, lock and round-robin
// pointer, and the words and credit returns still to be retracted.
func (r *Router) ReplayFingerprint(ctx *replay.Ctx, buf []byte) []byte {
	for i := range r.inBuf {
		buf = replay.AppendI64(buf, int64(len(r.inBuf[i])))
		for _, p := range r.inBuf[i] {
			buf = replay.AppendPhit(buf, p, ctx)
		}
		cur := int64(-1)
		if r.routed[i] {
			cur = int64(r.curOut[i])
		}
		buf = replay.AppendI64(buf, cur)
		buf = replay.AppendI64(buf, int64(r.locked[i]))
		buf = replay.AppendI64(buf, int64(r.rrPtr[i]))
		buf = replay.AppendI64(buf, int64(r.outCredit[i]))
	}
	return replay.AppendI64(buf, int64(r.outBusy)<<32|int64(r.creditBusy))
}

// ReplayShift implements replay.Periodic.
func (r *Router) ReplayShift(s *replay.Shift) {
	for i := range r.inBuf {
		for j, p := range r.inBuf[i] {
			r.inBuf[i][j] = replay.ShiftPhit(p, s)
		}
	}
	r.forwarded += s.Epochs * r.rm.dForwarded
	r.stalls += s.Epochs * r.rm.dStalls
}

// ReplayPeriod implements replay.Periodic: the NI never reads absolute
// time, so its behaviour repeats after one cycle given identical state.
func (n *NI) ReplayPeriod() clock.Duration { return n.clk.Period }

// ReplayMark implements replay.Periodic: the epoch is shift-clean when
// every terminating connection's statistics are (ni.ConnStats.Mark).
func (n *NI) ReplayMark(now clock.Time) bool {
	clean := true
	for _, ic := range n.ins {
		if !ic.rx.Mark() {
			clean = false
		}
	}
	return clean
}

// ReplayFingerprint implements replay.Periodic: link credits, the
// round-robin pointer, the open packet, the packet being received, the
// pending retractions and every send queue, normalised to the boundary
// instant and each connection's sequence base. Measurements are excluded
// (they shift by deltas).
func (n *NI) ReplayFingerprint(ctx *replay.Ctx, buf []byte) []byte {
	open, cur := int64(-1), int64(-1)
	if n.openConn != nil {
		open = int64(n.openConn.cfg.ID)
	}
	if n.curIn != nil {
		cur = int64(n.curIn.cfg.QID)
	}
	for _, v := range []int64{int64(n.linkCredit), int64(n.rr), open, int64(n.openWords), cur} {
		buf = replay.AppendI64(buf, v)
	}
	for _, b := range []bool{n.inPacket, n.outBusy, n.creditHigh} {
		if b {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	for _, oc := range n.outs {
		buf = replay.AppendI64(buf, int64(oc.queue.Len()))
		oc.queue.Scan(func(m phit.Meta, pushed, visible clock.Time) {
			buf = replay.AppendMeta(buf, m, ctx)
			buf = replay.AppendTime(buf, pushed, ctx)
			buf = replay.AppendTime(buf, visible, ctx)
		})
	}
	return buf
}

// ReplayShift implements replay.Periodic.
func (n *NI) ReplayShift(s *replay.Shift) {
	for _, oc := range n.outs {
		oc.queue.Adjust(func(m phit.Meta, pushed, visible clock.Time) (phit.Meta, clock.Time, clock.Time) {
			return replay.ShiftMeta(m, s), pushed + clock.Time(s.DT), visible + clock.Time(s.DT)
		})
	}
	for _, ic := range n.ins {
		ic.rx.Shift(s)
	}
}
