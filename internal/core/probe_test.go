package core

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/slots"
)

// slotWriter drives the probed wire every cycle with a phit belonging to
// the connection that owns the *driving* cycle's TDM slot, optionally
// skewed by slotOffset flit cycles to model a misattributing writer.
type slotWriter struct {
	name       string
	clk        *clock.Clock
	out        *sim.Wire[phit.Phit]
	table      int
	slotOffset int64
}

func (w *slotWriter) Name() string        { return w.name }
func (w *slotWriter) Clock() *clock.Clock { return w.clk }

func (w *slotWriter) Update(now clock.Time) {
	edge, ok := w.clk.EdgeIndex(now)
	if !ok {
		panic("writer off-edge")
	}
	slot := ((edge/phit.FlitWords+w.slotOffset)%int64(w.table) + int64(w.table)) % int64(w.table)
	w.out.Drive(phit.Phit{Valid: true, Kind: phit.Payload, Meta: phit.Meta{Conn: phit.ConnID(slot + 1)}})
}

// probeRun drives a probe from a clock domain distinct from the writer's
// — two clock objects with identical period and phase, so every instant
// is a coincident multi-group dispatch of the engine's clock-ring scheduler
// — and returns the slot-ownership violations.
func probeRun(t *testing.T, slotOffset int64) int64 {
	t.Helper()
	const tableSize = 4
	alloc := slots.NewAllocation(tableSize)
	path := &route.Path{Links: []route.Hop{{Link: 0}}}
	for s := 0; s < tableSize; s++ {
		alloc.Claim(phit.ConnID(s+1), path, s)
	}

	eng := sim.New()
	wire := sim.NewWire[phit.Phit]("l0")
	eng.AddWire(wire)
	// Distinct clock objects: the engine groups components per *object*,
	// so writer and probe land in different clock groups whose edges
	// always coincide.
	wClk := clock.New("w", 1000, 0)
	pClk := clock.New("p", 1000, 0)
	col := fault.NewCollector()
	w := &slotWriter{name: "writer", clk: wClk, out: wire, table: tableSize}
	p := &probe{name: "probe.l0", clk: pClk, wire: wire, alloc: alloc, link: 0, rep: col}
	// slotOffset shifts which slot the *writer* stamps, modelling a wire
	// value attributed to the wrong cycle.
	w.slotOffset = slotOffset
	eng.Add(w)
	eng.Add(p)
	eng.Run(clock.Time(tableSize * phit.FlitWords * 1000 * 3))
	return col.Total()
}

// TestProbeSamplesPreCommitValues: the probe must observe the value the
// wire held *before* the current instant's drives commit, and attribute
// it to the driving cycle (edge-1), even when writer and probe sit in
// different clock groups sharing every edge instant. An engine
// that committed wires between group dispatches, or a probe attributing
// to the sampling cycle, shifts the observed slot by one and trips
// ownership violations at every flit boundary. (TestProbeDetectsSlotSkew
// shows the same probe does check what it samples.)
func TestProbeSamplesPreCommitValues(t *testing.T) {
	if violations := probeRun(t, 0); violations != 0 {
		t.Errorf("aligned writer produced %d slot-ownership violations", violations)
	}
}

// TestProbeDetectsSlotSkew guards the regression test's sensitivity: a
// writer stamping the next flit cycle's owner must be caught.
func TestProbeDetectsSlotSkew(t *testing.T) {
	if probeRun(t, 1) == 0 {
		t.Error("probe missed a one-slot schedule skew")
	}
}
