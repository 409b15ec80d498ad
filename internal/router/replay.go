package router

// Hyperperiod replay support: both adapters of the router implement
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
// flit counters. The input flits are the wires', which the program
// fingerprints itself, and the output flits are rewritten at every flit
// edge before they are read.
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
	return buf
}

// ReplayShift implements replay.Periodic: a router on flit links holds no
// word between flit edges.
func (r *FlitComponent) ReplayShift(s *replay.Shift) {}
