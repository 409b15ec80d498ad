package core

// Hyperperiod replay support for the slot-ownership probe: it decodes the
// edge index into a TDM slot, so its pattern period is one slot-table
// revolution. It has no mutable state.

import (
	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/replay"
)

// ReplayPeriod implements replay.Periodic.
func (p *probe) ReplayPeriod() clock.Duration {
	return clock.Duration(phit.FlitWords*p.alloc.TableSize) * p.clk.Period
}

// ReplayMark implements replay.Periodic.
func (p *probe) ReplayMark(now clock.Time) bool { return true }

// ReplayFingerprint implements replay.Periodic.
func (p *probe) ReplayFingerprint(ctx *replay.Ctx, buf []byte) []byte {
	return buf // no architectural state
}

// ReplayShift implements replay.Periodic.
func (p *probe) ReplayShift(s *replay.Shift) {}
