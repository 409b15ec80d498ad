package core

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/sim"
	"repro/internal/slots"
	"repro/internal/topology"
)

// A probe dynamically verifies contention-free routing on a watched
// network's word links: every valid phit observed at a link's entry wire
// must belong to the connection that the allocation assigned to that link
// in that slot. Any mismatch is a violated TDM schedule — the property
// underpinning both composability and predictability — reported to the
// network's FaultReporter as a SlotOwnership violation. The auditor makes
// the same check at every flit start from the routers' RouterForward
// events, on any link kind.
type probe struct {
	name  string
	clk   *clock.Clock
	wire  *sim.Wire[phit.Phit]
	alloc *slots.Allocation
	link  topology.LinkID
	rep   fault.Reporter
}

func (p *probe) Name() string        { return p.name }
func (p *probe) Clock() *clock.Clock { return p.clk }

func (p *probe) Update(now clock.Time) {
	w := p.wire.Ref()
	if !w.Valid {
		return
	}
	edge, ok := p.clk.EdgeIndex(now)
	if !ok {
		// An injected phase or period step can leave this dispatch
		// between edges of the mutated clock; slot attribution is
		// meaningless there, so skip the observation.
		return
	}
	// The word was driven in the previous cycle; attribute it to that
	// cycle's slot.
	drive := edge - 1
	if drive < 0 {
		return
	}
	slot := int((drive / phit.FlitWords) % int64(p.alloc.TableSize))
	owner := p.alloc.LinkOwner(p.link, slot)
	got := w.Meta.Conn
	if got != owner {
		fault.Report(p.rep, fault.Violation{
			Kind: fault.SlotOwnership, Component: p.name, Time: now, Slot: slot,
			Detail: fmt.Sprintf("slot carries connection %d but is allocated to %d — TDM schedule violated", got, owner),
		})
	}
}
