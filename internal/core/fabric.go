package core

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/ni"
	"repro/internal/phit"
	"repro/internal/replay"
	"repro/internal/router"
)

// flitFabric steps every router and NI of a network on flit links as one
// engine component, in the order the engine would dispatch them: routers
// first, then NIs, each in build order. It counts the clock's edges once
// for all of them. Routers switch only at flit edges; at the other two
// word edges only the NIs whose flit cycle is not quiet (ni.NI.Quiet) step,
// so an idle fabric costs one call per edge. Trace events come out in the
// order the members would emit them as separate components.
type flitFabric struct {
	clk     *clock.Clock
	routers []*router.FlitComponent
	nis     []*ni.NI
	slots   int // every NI's table size
	// busy holds the NIs, in order, whose current flit cycle is not
	// quiet: an NI decides at its flit edge, and only there.
	busy []*ni.NI

	// The word and slot indices of the last Update, and the edge and clock
	// they were derived for: while the clock ticks undisturbed they advance
	// by one, and only a first edge, a time jump or a moved clock divides.
	word, slot int
	nextEdge   clock.Time
	edgePeriod clock.Duration
	edgePhase  clock.Duration
}

// Name implements sim.Component.
func (f *flitFabric) Name() string { return "fabric" }

// Clock implements sim.Component.
func (f *flitFabric) Clock() *clock.Clock { return f.clk }

// Update implements sim.Component.
func (f *flitFabric) Update(now clock.Time) {
	if now == f.nextEdge && f.clk.Period == f.edgePeriod && f.clk.Phase == f.edgePhase {
		if f.word++; f.word == phit.FlitWords {
			f.word = 0
			if f.slot++; f.slot == f.slots {
				f.slot = 0
			}
		}
	} else {
		edge, ok := f.clk.EdgeIndex(now)
		if !ok {
			panic(fmt.Sprintf("core: fabric update off-edge at %d ps", now))
		}
		f.word = int(edge % phit.FlitWords)
		f.slot = int(edge / phit.FlitWords % int64(f.slots))
		f.edgePeriod, f.edgePhase = f.clk.Period, f.clk.Phase
		f.findBusy() // replay may have moved the NIs since the last edge
	}
	f.nextEdge = now + f.clk.Period
	if f.word == 0 {
		for _, r := range f.routers {
			r.Switch(now)
		}
		for _, c := range f.nis {
			c.Step(now, 0, f.slot)
		}
		f.findBusy()
		return
	}
	for _, c := range f.busy {
		c.Step(now, f.word, f.slot)
	}
}

// findBusy lists the NIs whose flit cycle is not quiet.
func (f *flitFabric) findBusy() {
	f.busy = f.busy[:0]
	for _, c := range f.nis {
		if !c.Quiet() {
			f.busy = append(f.busy, c)
		}
	}
}

// members calls fn on every router and NI, in dispatch order.
func (f *flitFabric) members(fn func(replay.Periodic)) {
	for _, r := range f.routers {
		fn(r)
	}
	for _, c := range f.nis {
		fn(c)
	}
}

// ReplayPeriod implements replay.Periodic: the members' hyperperiod, 0
// when one of them is aperiodic or it exceeds the program's bound.
func (f *flitFabric) ReplayPeriod() clock.Duration {
	var hp clock.Duration
	first := true
	f.members(func(p replay.Periodic) {
		switch per := p.ReplayPeriod(); {
		case first:
			hp, first = per, false
		default:
			hp = replay.LCM(hp, per, replay.DefaultMaxHyperperiod)
		}
	})
	return hp
}

// ReplayMark implements replay.Periodic: every member marks, and the epoch
// is clean when it was clean for all of them.
func (f *flitFabric) ReplayMark(now clock.Time) bool {
	clean := true
	f.members(func(p replay.Periodic) {
		if !p.ReplayMark(now) {
			clean = false
		}
	})
	return clean
}

// ReplayFingerprint implements replay.Periodic: the members' fingerprints
// in order. The edge counters are derived from time, as each NI's are.
func (f *flitFabric) ReplayFingerprint(ctx *replay.Ctx, buf []byte) []byte {
	f.members(func(p replay.Periodic) { buf = p.ReplayFingerprint(ctx, buf) })
	return buf
}

// ReplayShift implements replay.Periodic.
func (f *flitFabric) ReplayShift(s *replay.Shift) {
	f.members(func(p replay.Periodic) { p.ReplayShift(s) })
}
