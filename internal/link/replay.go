package link

// Hyperperiod replay support: both engine components of a mesochronous
// stage implement replay.Periodic. The writer tap owns the stage's
// bi-synchronous FIFO state (contents plus push/visibility instants) and
// the traced occupancy ratchet; the reader FSM owns the flit-alignment
// state, whose behaviour depends on the edge index modulo FlitWords.

import (
	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/replay"
)

// ReplayPeriod implements replay.Periodic: the tap's behaviour repeats
// every cycle (given identical wire and FIFO state).
func (t *writerTap) ReplayPeriod() clock.Duration { return t.clk.Period }

// ReplayMark implements replay.Periodic.
func (t *writerTap) ReplayMark(now clock.Time) bool {
	s := t.stage
	// The epoch is clean unless the traced FIFO high-water mark rose in
	// it: its Occupancy event would not recur in a real run.
	clean := s.maxOcc == s.mMaxOcc
	s.mMaxOcc = s.maxOcc
	return clean
}

// ReplayFingerprint implements replay.Periodic: the FIFO's forwarding
// delay, which a fault may stretch, and its contents with their push and
// visibility instants, normalised to the boundary.
func (t *writerTap) ReplayFingerprint(ctx *replay.Ctx, buf []byte) []byte {
	s := t.stage
	buf = replay.AppendI64(buf, int64(s.fifo.ForwardDelay()))
	buf = replay.AppendI64(buf, int64(s.fifo.Len()))
	s.fifo.Scan(func(p phit.Phit, pushed, visible clock.Time) {
		buf = replay.AppendPhit(buf, p, ctx)
		buf = replay.AppendTime(buf, pushed, ctx)
		buf = replay.AppendTime(buf, visible, ctx)
	})
	return buf
}

// ReplayShift implements replay.Periodic.
func (t *writerTap) ReplayShift(sh *replay.Shift) {
	s := t.stage
	s.fifo.Adjust(func(p phit.Phit, pushed, visible clock.Time) (phit.Phit, clock.Time, clock.Time) {
		return replay.ShiftPhit(p, sh), pushed + clock.Time(sh.DT), visible + clock.Time(sh.DT)
	})
}

// ReplayPeriod implements replay.Periodic: the FSM decodes the edge index
// modulo FlitWords, so its pattern repeats each flit cycle.
func (f *readerFSM) ReplayPeriod() clock.Duration {
	return phit.FlitWords * f.clk.Period
}

// ReplayMark implements replay.Periodic: the FSM keeps no counters.
func (f *readerFSM) ReplayMark(now clock.Time) bool { return true }

// ReplayFingerprint implements replay.Periodic.
func (f *readerFSM) ReplayFingerprint(ctx *replay.Ctx, buf []byte) []byte {
	var fw int64
	if f.forwarding {
		fw = 1
	}
	return replay.AppendI64(buf, fw)
}

// ReplayShift implements replay.Periodic: the FSM holds no time.
func (f *readerFSM) ReplayShift(s *replay.Shift) {}
