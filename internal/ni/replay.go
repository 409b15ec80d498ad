package ni

// Hyperperiod replay support: the NI implements replay.Periodic so the
// compiled fast path can prove its state periodic, fast-forward it by
// whole epochs, and fall back to cycle-accurate execution losslessly.

import (
	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/replay"
)

// ReplayPeriod implements replay.Periodic: the NI's behaviour depends on
// absolute time through the word index within a flit and the TDM slot
// index, which repeat every FlitWords*TableSize clock cycles. Flit-level
// wrapping and the reliability shell make it data-dependent, and neither
// is ever undone: the NI is then aperiodic.
func (n *NI) ReplayPeriod() clock.Duration {
	if n.wrapped || n.rel != nil {
		return 0
	}
	return clock.Duration(phit.FlitWords*n.table.Size()) * n.clk.Period
}

// ReplayMark implements replay.Periodic.
func (n *NI) ReplayMark(now clock.Time) bool {
	clean := true
	for _, oc := range n.outs {
		if oc.maxOcc != oc.mMaxOcc {
			// The traced high-water mark rose during the epoch: its
			// Occupancy event is in the recorded schedule but a real run
			// would not re-emit it, so the epoch is not replayable.
			clean = false
		}
		oc.mMaxOcc = oc.maxOcc
	}
	for _, ic := range n.ins {
		if !ic.rx.Mark() {
			clean = false
		}
	}
	return clean
}

// ReplayFingerprint implements replay.Periodic: the complete protocol
// state, normalised to the boundary instant and the per-connection
// sequence base. Monotone statistics are excluded (they shift by deltas);
// the slot table contents are included so an unsynchronised table
// reprogram can never match a stale fingerprint.
func (n *NI) ReplayFingerprint(ctx *replay.Ctx, buf []byte) []byte {
	buf = replay.AppendI64(buf, int64(n.openConn))
	var flags int64
	if n.inPacket {
		flags |= 1
	}
	if n.dropPacket {
		flags |= 2
	}
	if n.quiet {
		flags |= 4
	}
	buf = replay.AppendI64(buf, flags)
	cur := int64(-1)
	if n.curIn != nil {
		cur = int64(n.curIn.cfg.QID)
	}
	buf = replay.AppendI64(buf, cur)
	for _, p := range n.flitBuf {
		buf = replay.AppendPhit(buf, p, ctx)
	}
	for _, owner := range n.table.Slots {
		buf = replay.AppendI64(buf, int64(owner))
	}
	for _, oc := range n.outs {
		buf = replay.AppendI64(buf, int64(oc.cfg.ID))
		buf = replay.AppendI64(buf, int64(oc.credits))
		buf = replay.AppendI64(buf, int64(oc.queue.Len()))
		oc.queue.Scan(func(m phit.Meta, pushed, visible clock.Time) {
			buf = replay.AppendMeta(buf, m, ctx)
			buf = replay.AppendTime(buf, pushed, ctx)
			buf = replay.AppendTime(buf, visible, ctx)
		})
	}
	for _, ic := range n.ins {
		buf = replay.AppendI64(buf, int64(ic.cfg.ID))
		buf = replay.AppendI64(buf, int64(ic.owed))
	}
	return buf
}

// ReplayShift implements replay.Periodic.
func (n *NI) ReplayShift(s *replay.Shift) {
	for i := range n.flitBuf {
		n.flitBuf[i] = replay.ShiftPhit(n.flitBuf[i], s)
	}
	for _, oc := range n.outs {
		oc.queue.Adjust(func(m phit.Meta, pushed, visible clock.Time) (phit.Meta, clock.Time, clock.Time) {
			return replay.ShiftMeta(m, s), pushed + clock.Time(s.DT), visible + clock.Time(s.DT)
		})
	}
	for _, ic := range n.ins {
		ic.rx.Shift(s)
	}
}
