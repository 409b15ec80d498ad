package router

import (
	"fmt"
	"math/bits"

	"repro/internal/clock"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/trace"
)

// FlitComponent adapts a Core to synchronous flit links (fault.FlitLink).
// The router pipeline's latency is exactly one flit cycle, so the link
// register is the pipeline: the router switches only at flit edges (edge
// index ≡ 0 mod FlitWords), where Switch reads each input's flit,
// committed by its upstream one flit cycle before, switches it through
// the wrapper's datapath and drives each output's flit. Every word still
// reaches the same output at the same instant as through Component's
// three stages, and every RouterForward is traced at its word's instant.
// It is no engine component: a network calls Switch from one component
// that counts the clock's edges for all its routers and NIs.
//
// A network runs on flit links only when it has no fault reporter (so
// no ownership probe either), so the component has no reporter: the
// first envelope violation the datapath meets panics. A router has at most 64 ports.
type FlitComponent struct {
	core *Core
	clk  *clock.Clock

	in  []*fault.FlitLink // nil: unconnected, reads empty flits
	out []*fault.FlitLink // nil: unconnected
	// inF and outF point the datapath at this flit cycle's input flits and
	// at outBuf, the output flits being driven; full marks the outputs
	// whose flit has a valid word.
	inF    []*phit.Flit
	outF   []*phit.Flit
	outBuf []phit.Flit
	full   uint64
	idle   phit.Flit
}

// NewFlitComponent wraps a new Core for flit links. Ports are
// connected afterwards with ConnectIn/ConnectOut; unconnected ports read
// empty flits, and a valid word for an unconnected output is a RouteError.
func NewFlitComponent(name string, arity int, layout phit.HeaderLayout, clk *clock.Clock) *FlitComponent {
	if arity > 64 {
		panic(fmt.Sprintf("router %s: arity %d above the flit-link maximum 64", name, arity))
	}
	r := &FlitComponent{
		core:   NewCore(name, arity, layout),
		clk:    clk,
		in:     make([]*fault.FlitLink, arity),
		out:    make([]*fault.FlitLink, arity),
		inF:    make([]*phit.Flit, arity),
		outF:   make([]*phit.Flit, arity),
		outBuf: make([]phit.Flit, arity),
	}
	for i := range r.outF {
		r.inF[i] = &r.idle
		r.outF[i] = &r.outBuf[i]
	}
	return r
}

// ConnectIn attaches the link read by input port i.
func (r *FlitComponent) ConnectIn(i int, l *fault.FlitLink) { r.in[i] = l }

// ConnectOut attaches the link driven by output port i.
func (r *FlitComponent) ConnectOut(i int, l *fault.FlitLink) { r.out[i] = l }

// Name returns the router's name.
func (r *FlitComponent) Name() string { return r.core.name }

// SetTracer installs the wrapped core's lifecycle-event emitter.
func (r *FlitComponent) SetTracer(e *trace.Emitter) { r.core.SetTracer(e) }

// Switch is the flit edge at now: it switches the input flits to the
// outputs and drives the output links.
func (r *FlitComponent) Switch(now clock.Time) {
	var skip uint64 // inputs with an empty flit and no flit under way
	c := r.core
	for i, l := range r.in {
		full := l != nil && l.Full(now)
		r.inF[i] = &r.idle // what an empty committed flit holds too
		if full {
			r.inF[i] = l.Flits.Ref()
		} else if c.flitLeft[i] == 0 {
			skip |= 1 << i
		}
	}
	for m := r.full; m != 0; m &= m - 1 {
		r.outBuf[bits.TrailingZeros64(m)] = phit.Flit{}
	}
	c.now = now
	r.full = c.stepFlit(r.inF, r.outF, r.clk.Period, skip)
	for i, l := range r.out {
		switch {
		case l != nil:
			l.Drive(now, &r.outBuf[i], r.full&(1<<i) != 0)
		case r.full&(1<<i) != 0:
			r.unconnected(i, now)
		}
	}
}

// unconnected reports a valid word switched to unconnected output i at the
// instant the word pipeline would have driven it.
func (r *FlitComponent) unconnected(i int, now clock.Time) {
	for w, p := range r.outBuf[i] {
		if p.Valid {
			c := r.core
			c.now = now + clock.Time(w)*r.clk.Period
			c.violate(fault.RouteError, fmt.Sprintf("valid phit for unconnected output %d (conn %d), phit dropped",
				i, p.Meta.Conn))
			c.now = now
		}
	}
}
