package fault

import "repro/internal/sim"

// A System is the slice of a built network a campaign needs: the engine to
// arm events on, the injection points, and a place to hang the invariant
// checkers. core.Network satisfies it.
type System interface {
	Engine() *sim.Engine
	FaultTargets() Targets
	AddInvariantCheckers(rep Reporter)
}

// Execute arms plan on sys, drives the simulation via run, and returns the
// deterministic campaign summary — the boilerplate every campaign driver
// (aelite-sim, the faultcampaign example, sweep workers) shares.
//
// col receives the violations and feeds the summary; a nil col leaves the
// system in strict mode, so the first violation panics and the summary
// lists the injected faults only.
func Execute(plan *Plan, col *Collector, sys System, run func()) (*Summary, error) {
	var rep Reporter
	if col != nil {
		rep = col
	}
	sys.AddInvariantCheckers(rep)
	c := NewCampaign(plan, col)
	if err := c.Arm(sys.Engine(), sys.FaultTargets()); err != nil {
		return nil, err
	}
	run()
	return c.Summarize(), nil
}
