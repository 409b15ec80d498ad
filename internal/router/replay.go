package router

// Hyperperiod replay support: both engine adapters of the router implement
// replay.Periodic. The word pipeline's behaviour never depends on absolute
// time (SetNow only stamps violation reports), so its pattern period is a
// single clock cycle; its architectural state is the three pipeline
// stages plus the per-input packet trackers.

import (
	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/replay"
)

// ReplayPeriod implements replay.Periodic.
func (r *Component) ReplayPeriod() clock.Duration { return r.clk.Period }

// ReplayMark implements replay.Periodic: a router keeps no counters.
func (r *Component) ReplayMark(now clock.Time) bool { return true }

// ReplayFingerprint implements replay.Periodic.
func (r *Component) ReplayFingerprint(ctx *replay.Ctx, buf []byte) []byte {
	c := r.core
	for _, p := range c.reg1 {
		buf = replay.AppendPhit(buf, p, ctx)
	}
	for _, reg := range c.reg2 {
		buf = replay.AppendPhit(buf, reg.p, ctx)
		buf = replay.AppendI64(buf, int64(reg.outPort))
	}
	for _, st := range c.hpu {
		var f int64
		if st.inPacket {
			f = 1
		}
		buf = replay.AppendI64(buf, f<<32|int64(uint32(st.outPort)))
	}
	for _, fl := range c.flitLeft {
		buf = append(buf, byte(fl))
	}
	return buf
}

// ReplayShift implements replay.Periodic.
func (r *Component) ReplayShift(s *replay.Shift) {
	c := r.core
	for i := range c.reg1 {
		c.reg1[i] = replay.ShiftPhit(c.reg1[i], s)
	}
	for i := range c.reg2 {
		c.reg2[i].p = replay.ShiftPhit(c.reg2[i].p, s)
	}
}

// ReplayPeriod implements replay.Periodic: a router on flit links switches
// at every FlitWords-th edge, so its behaviour repeats every flit cycle.
func (r *FlitComponent) ReplayPeriod() clock.Duration {
	return phit.FlitWords * r.clk.Period
}

// ReplayMark implements replay.Periodic: a router keeps no counters.
func (r *FlitComponent) ReplayMark(now clock.Time) bool { return true }

// ReplayFingerprint implements replay.Periodic: the packet trackers and
// flit counters, the first words already through the HPU for the next
// flit edge, the output flits of the current flit cycle (driven word by
// word onto a fault view), the input readers' view state and the count of
// held violations and events.
// The input flits are the wires', which the program fingerprints itself.
func (r *FlitComponent) ReplayFingerprint(ctx *replay.Ctx, buf []byte) []byte {
	c := r.core
	for _, st := range c.hpu {
		var f int64
		if st.inPacket {
			f = 1
		}
		buf = replay.AppendI64(buf, f<<32|int64(uint32(st.outPort)))
	}
	for _, fl := range c.flitLeft {
		buf = append(buf, byte(fl))
	}
	// First words the HPU ran on at the boundary wait for the flit edge
	// after it; any others are stale, and stepFlit never reads them.
	if r.preAt == ctx.Now {
		buf = replay.AppendI64(buf, int64(r.inFull))
		buf = replay.AppendI64(buf, int64(r.preOK))
		for i, h := range r.pre {
			if r.preOK&(1<<i) != 0 {
				buf = replay.AppendPhit(buf, h.p, ctx)
				buf = replay.AppendI64(buf, int64(h.port))
			}
		}
	} else {
		buf = replay.AppendI64(buf, -1)
	}
	buf = replay.AppendI64(buf, int64(len(r.held.q)+len(r.held.events)))
	for _, f := range r.outBuf {
		for _, p := range f {
			buf = replay.AppendPhit(buf, p, ctx)
		}
	}
	for i := range r.in {
		buf = r.in[i].AppendFingerprint(ctx, buf)
	}
	var flags byte
	if r.watching {
		flags |= 1
	}
	if r.viewing {
		flags |= 2
	}
	return append(buf, flags)
}

// ReplayShift implements replay.Periodic.
func (r *FlitComponent) ReplayShift(s *replay.Shift) {
	for i := range r.pre {
		r.pre[i].p = replay.ShiftPhit(r.pre[i].p, s)
	}
	if r.preAt >= 0 {
		r.preAt += clock.Time(s.DT)
	}
	for i := range r.held.q {
		r.held.q[i].v.Time += clock.Time(s.DT)
	}
	for i := range r.held.events {
		r.held.events[i].Time += clock.Time(s.DT)
	}
	for i := range r.outBuf {
		for w := range r.outBuf[i] {
			r.outBuf[i][w] = replay.ShiftPhit(r.outBuf[i][w], s)
		}
	}
	for i := range r.in {
		r.in[i].Shift(s)
	}
}
