package router

import (
	"fmt"
	"math/bits"

	"repro/internal/clock"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/trace"
)

// FlitComponent adapts a Core to the engine on synchronous flit links
// (fault.FlitLink). The router pipeline's latency is exactly one flit
// cycle, so the link register is the pipeline: the component is
// dispatched every edge but switches only at flit edges (edge index ≡ 0
// mod FlitWords), where it reads each input's flit, committed by its
// upstream one flit cycle before, switches it through the wrapper's
// datapath and drives each output's flit. Every word still reaches the
// same output at the same instant as through Component's three stages.
//
// Every violation is reported, and every RouterForward traced, at the
// instant and in the order the word pipeline gives it: in collecting mode
// the HPU of a flit's first word runs one edge before the flit edge, as
// the word pipeline's does, and what the switch meets for a later word
// waits for that word's edge. Between flit edges the component otherwise
// only watches its links' word views, and moves words over them while one
// has an intercept (see fault.FlitLink). A router has at most 64 ports.
type FlitComponent struct {
	core *Core
	clk  *clock.Clock

	in  []fault.FlitReader // not Connected: reads empty flits
	out []*fault.FlitLink  // nil: unconnected
	// views counts the word views with an intercept that the router's
	// links share; watching is set while it was positive at the last edge,
	// and viewing while it was at any edge of the current flit cycle, when
	// an input may hold words its view carried.
	views    *int
	watching bool
	viewing  bool
	// inF and outF point the datapath at this flit cycle's input flits and
	// at outBuf, the output flits driven through the flit cycle; full marks
	// the outputs whose flit has a valid word.
	inF    []*phit.Flit
	outF   []*phit.Flit
	outBuf []phit.Flit
	full   uint64
	idle   phit.Flit
	// pre holds each input's first word through the HPU, done at preAt,
	// the edge before the flit edge, for the inputs in preOK; inFull marks
	// the inputs whose flit had a valid word then.
	pre    []hopped
	preOK  uint64
	preAt  clock.Time
	inFull uint64
	// held queues the violations and events met before their instant (see
	// heldQueue).
	held heldQueue

	// The word index of the last Update, and the edge and clock it was
	// derived for: while the clock ticks undisturbed it advances by one,
	// and only a first edge, a time jump or a moved clock divides.
	word       int
	nextEdge   clock.Time
	edgePeriod clock.Duration
	edgePhase  clock.Duration
}

// NewFlitComponent wraps a new Core for the engine on flit links. Ports are
// connected afterwards with ConnectIn/ConnectOut; unconnected ports read
// empty flits, and a valid word for an unconnected output is a RouteError.
func NewFlitComponent(name string, arity int, layout phit.HeaderLayout, clk *clock.Clock) *FlitComponent {
	if arity > 64 {
		panic(fmt.Sprintf("router %s: arity %d above the flit-link maximum 64", name, arity))
	}
	r := &FlitComponent{
		core:   NewCore(name, arity, layout),
		clk:    clk,
		in:     make([]fault.FlitReader, arity),
		out:    make([]*fault.FlitLink, arity),
		inF:    make([]*phit.Flit, arity),
		outF:   make([]*phit.Flit, arity),
		outBuf: make([]phit.Flit, arity),
		pre:    make([]hopped, arity),
		preAt:  -1,
	}
	for i := range r.outF {
		r.inF[i] = &r.idle
		r.outF[i] = &r.outBuf[i]
	}
	r.core.held = &r.held
	return r
}

// ConnectIn attaches the link read by input port i. All links of a router
// share one counter of word views with an intercept.
func (r *FlitComponent) ConnectIn(i int, l *fault.FlitLink) {
	r.share(l)
	r.in[i] = fault.NewFlitReader(l)
}

// ConnectOut attaches the link driven by output port i.
func (r *FlitComponent) ConnectOut(i int, l *fault.FlitLink) {
	r.share(l)
	r.out[i] = l
}

// share takes l's counter of word views with an intercept as the router's.
func (r *FlitComponent) share(l *fault.FlitLink) {
	switch {
	case r.views == nil:
		r.views = l.Views()
	case r.views != l.Views():
		panic(fmt.Sprintf("router %s: links that count their word views apart", r.core.name))
	}
}

// Name implements sim.Component.
func (r *FlitComponent) Name() string { return r.core.name }

// Clock implements sim.Component.
func (r *FlitComponent) Clock() *clock.Clock { return r.clk }

// SetReporter routes the wrapped core's envelope checks to rep; nil
// restores the fail-fast panics, which fire when the datapath meets a
// violation.
func (r *FlitComponent) SetReporter(rep fault.Reporter) {
	r.held.rep = rep
	if rep == nil {
		r.core.SetReporter(nil)
		return
	}
	r.core.SetReporter(&r.held)
}

// SetTracer installs the wrapped core's lifecycle-event emitter.
func (r *FlitComponent) SetTracer(e *trace.Emitter) {
	r.core.SetTracer(e)
	r.held.tr = e
}

// Update implements sim.Component.
func (r *FlitComponent) Update(now clock.Time) {
	w := r.wordAt(now)
	hooked := r.views != nil && *r.views > 0
	watch := hooked || r.watching
	r.watching = hooked
	if watch {
		r.viewing = true
		for i := range r.in {
			if in := &r.in[i]; in.Connected() {
				in.Step(w)
			}
		}
	}
	switch {
	case w == phit.FlitWords-1 && r.held.rep != nil:
		r.hopFirst(now)
	case w == 0:
		r.switchFlits(now)
	}
	if len(r.held.q) > 0 || len(r.held.events) > 0 {
		r.held.flush(now)
	}
	if watch {
		for i, l := range r.out {
			if l != nil {
				l.DriveWord(w, &r.outBuf[i])
			}
		}
	}
}

// hopFirst runs, one edge before the flit edge at which the flits the
// inputs hold are switched, the HPU of their first words, as the word
// pipeline does. Only a collecting router needs it, to report what the
// HPU meets there at that instant: with fail-fast panics, the flit edge
// hops the first words itself.
func (r *FlitComponent) hopFirst(now clock.Time) {
	c := r.core
	c.now = now
	var full, ok uint64
	for i := range r.in {
		in := &r.in[i]
		if !in.Connected() || !r.viewing && !in.Full(now) {
			continue
		}
		full |= 1 << i
		if p := in.Peek(now, 0); p.Valid {
			h := &r.pre[i]
			h.p = *p
			var passed bool
			if h.port, passed = c.hop(i, &h.p); passed {
				ok |= 1 << i
			}
		}
	}
	r.inFull, r.preOK = full, ok
	r.preAt = now
}

// switchFlits is the flit edge at now: it switches the input flits to the
// outputs and drives the output links.
func (r *FlitComponent) switchFlits(now clock.Time) {
	var skip uint64 // inputs with an empty flit and no flit under way
	c := r.core
	pre := r.pre
	if r.preAt != now-r.clk.Period {
		pre = nil // no HPU ran the edge before: hop the first words now
	}
	for i := range r.in {
		in := &r.in[i]
		full := false
		r.inF[i] = &r.idle // what an empty committed flit holds too
		switch {
		case !in.Connected():
		case r.viewing:
			r.inF[i], full = in.Flit(now)
		default:
			if pre != nil { // the edge before found which flits are full
				full = r.inFull&(1<<i) != 0
			} else {
				full = in.Full(now)
			}
			if full {
				r.inF[i] = in.Committed()
			}
		}
		if !full && c.flitLeft[i] == 0 {
			skip |= 1 << i
		}
	}
	r.viewing = false
	for m := r.full; m != 0; m &= m - 1 {
		r.outBuf[bits.TrailingZeros64(m)] = phit.Flit{}
	}
	c.now = now
	r.held.edge = now
	r.full = c.stepFlit(r.inF, r.outF, r.clk.Period, skip, pre, r.preOK)
	r.held.after = true
	for i, l := range r.out {
		switch {
		case l != nil:
			l.Drive(now, &r.outBuf[i], r.full&(1<<i) != 0)
		case r.full&(1<<i) != 0:
			r.unconnected(i, now)
		}
	}
	r.held.after = false
}

// unconnected reports each valid word switched to unconnected output i at
// the instant the word pipeline would have driven it.
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

// A heldQueue is the router core's reporter in collecting mode. It holds
// each violation, in the order the datapath meets them, until the
// router's dispatch at the instant the violation is stamped with, and
// then passes it on: the ones the switch and the HPU met first, then the
// unconnected-output ones (after), as the word pipeline reports them. It
// holds the same way the RouterForward of a flit that starts after the
// flit edge (its first word lost to a fault), so the bus gets it at its
// instant too.
type heldQueue struct {
	rep    fault.Reporter
	q      []heldViolation
	after  bool
	edge   clock.Time // the flit edge being switched
	tr     *trace.Emitter
	events []trace.Event
}

type heldViolation struct {
	v     fault.Violation
	after bool
}

// Report implements fault.Reporter.
func (h *heldQueue) Report(v fault.Violation) {
	h.q = append(h.q, heldViolation{v, h.after})
}

// flush passes on every held violation and event stamped at or before now.
func (h *heldQueue) flush(now clock.Time) {
	if len(h.events) > 0 {
		kept := h.events[:0]
		for _, ev := range h.events {
			if ev.Time <= now {
				if h.tr != nil {
					h.tr.Emit(ev)
				}
			} else {
				kept = append(kept, ev)
			}
		}
		h.events = kept
	}
	for _, after := range []bool{false, true} {
		for _, hv := range h.q {
			if hv.v.Time <= now && hv.after == after {
				h.rep.Report(hv.v)
			}
		}
	}
	kept := h.q[:0]
	for _, hv := range h.q {
		if hv.v.Time > now {
			kept = append(kept, hv)
		}
	}
	h.q = kept
}

// wordAt returns the word index of the edge at now within its flit cycle.
func (r *FlitComponent) wordAt(now clock.Time) int {
	if now == r.nextEdge && r.clk.Period == r.edgePeriod && r.clk.Phase == r.edgePhase {
		if r.word++; r.word == phit.FlitWords {
			r.word = 0
		}
	} else {
		edge, ok := r.clk.EdgeIndex(now)
		if !ok {
			panic(fmt.Sprintf("router %s: update off-edge at %d ps", r.core.name, now))
		}
		r.word = int(edge % phit.FlitWords)
		r.edgePeriod, r.edgePhase = r.clk.Period, r.clk.Phase
	}
	r.nextEdge = now + r.clk.Period
	return r.word
}
