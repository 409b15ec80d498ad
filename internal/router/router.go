package router

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/sim"
	"repro/internal/trace"
)

// hpuState tracks one input's position within a packet.
type hpuState struct {
	inPacket bool
	outPort  int
}

// stage2Reg is the register between the HPU and the switch.
type stage2Reg struct {
	p       phit.Phit
	outPort int
}

// Core is the cycle-exact aelite router state machine. Step advances it by
// one clock cycle. Core carries no notion of time or wiring; callers own
// both.
type Core struct {
	name   string
	layout phit.HeaderLayout
	arity  int

	reg1 []phit.Phit // input registers (stage 1)
	reg2 []stage2Reg // HPU output registers (stage 2)
	hpu  []hpuState

	// flitLeft counts the words remaining in the flit currently crossing
	// each input's switch stage, so tracing can emit one RouterForward per
	// flit instead of one per word. A flit's first word is never idle, so
	// the counter self-aligns: zero at a valid word marks a flit start.
	flitLeft []int8

	// rep receives envelope violations (TDM contention, protocol errors);
	// nil preserves the fail-fast panics. now is the adapter-maintained
	// simulation time stamped onto violations — Core itself is timeless.
	rep fault.Reporter
	now clock.Time

	// tr, when non-nil, receives a RouterForward event per switched flit
	// (stamped with the flit's first word), using the adapter-maintained now.
	tr *trace.Emitter
}

// NewCore returns a router core with the given arity (number of input and
// output ports) and header layout.
func NewCore(name string, arity int, layout phit.HeaderLayout) *Core {
	if arity < 2 {
		panic(fmt.Sprintf("router %s: arity %d below minimum 2", name, arity))
	}
	if err := layout.Validate(); err != nil {
		panic(fmt.Sprintf("router %s: %v", name, err))
	}
	return &Core{
		name:     name,
		layout:   layout,
		arity:    arity,
		reg1:     make([]phit.Phit, arity),
		reg2:     make([]stage2Reg, arity),
		hpu:      make([]hpuState, arity),
		flitLeft: make([]int8, arity),
	}
}

// Arity returns the port count.
func (c *Core) Arity() int { return c.arity }

// Name returns the router's name.
func (c *Core) Name() string { return c.name }

// SetReporter routes the router's envelope checks (TDM contention,
// protocol errors, routing errors) to r; nil restores fail-fast panics.
func (c *Core) SetReporter(r fault.Reporter) { c.rep = r }

// SetTracer installs the router's lifecycle-event emitter; nil disables
// tracing.
func (c *Core) SetTracer(e *trace.Emitter) { c.tr = e }

// SetNow stamps subsequent violations with the given simulation time; the
// engine adapter and the asynchronous wrapper call it, keeping Core itself
// free of any notion of time.
func (c *Core) SetNow(t clock.Time) { c.now = t }

// Step advances the router by one cycle: in[i] is the phit present at
// input port i this cycle; the returned slice (valid until the next call)
// holds the phit driven on each output port. The output corresponds to
// inputs presented three cycles earlier.
func (c *Core) Step(in []phit.Phit, out []phit.Phit) []phit.Phit {
	if len(in) != c.arity {
		panic(fmt.Sprintf("router %s: %d inputs for arity %d", c.name, len(in), c.arity))
	}
	out = c.switchAndParse(out)
	// Stage 1: input registers.
	copy(c.reg1, in)
	return out
}

// switchAndParse runs stages 3 and 2 of one cycle; the caller then latches
// the cycle's inputs into stage 1.
func (c *Core) switchAndParse(out []phit.Phit) []phit.Phit {
	if cap(out) < c.arity {
		out = make([]phit.Phit, c.arity)
	}
	out = out[:c.arity]
	clear(out) // every output idle until a valid phit is switched to it

	// Stage 3: switch reg2 to the outputs.
	for i := range c.reg2 {
		r := &c.reg2[i]
		start := c.flitStart(i, r.p.Valid)
		if r.p.Valid && c.portOK(i, r.outPort, &r.p) {
			c.put(&out[r.outPort], &r.p, r.outPort, start)
		}
	}

	// Stage 2: HPU. An idle input costs its valid bit: stage 2 is cleared
	// only if it held a phit, and a phit is copied once, into stage 2.
	for i := range c.reg1 {
		p, r := &c.reg1[i], &c.reg2[i]
		if !p.Valid {
			if r.p.Valid {
				*r = stage2Reg{}
			}
			continue
		}
		port, ok := c.hop(i, p)
		if !ok {
			*r = stage2Reg{}
			continue
		}
		r.p, r.outPort = *p, port
	}
	return out
}

// The per-phit steps below are the router's datapath, shared by both
// clocking regimes: switchAndParse calls them once per cycle from its
// pipeline registers, StepFlitDirect once per word of a wrapper token.

// hop is the HPU for input i's valid phit p. Outside a packet p must be a
// header: it consumes one hop of the path (p.Data is shifted in place) and
// latches the output port until EoP. A non-header phit outside a packet (a
// dropped or corrupted header upstream) is a ProtocolError and is
// discarded until the next packet start; hop then reports false.
func (c *Core) hop(i int, p *phit.Phit) (port int, ok bool) {
	st := &c.hpu[i]
	if !st.inPacket {
		if p.Kind != phit.Header && p.Kind != phit.CreditOnly {
			c.violate(fault.ProtocolError, fmt.Sprintf("input %d expected header, got %v (conn %d), phit dropped",
				i, p.Kind, p.Meta.Conn))
			return 0, false
		}
		st.outPort, p.Data = c.layout.NextPort(p.Data)
	}
	st.inPacket = !p.EoP
	return st.outPort, true
}

// flitStart advances input i's flit-word counter past one word reaching
// the switch and reports whether that word starts a flit. A flit's first
// word is never idle, so the counter self-aligns: a valid word that finds
// it at zero starts a flit.
func (c *Core) flitStart(i int, valid bool) bool {
	left := &c.flitLeft[i]
	switch {
	case !valid:
		if *left > 0 {
			*left-- // idle padding inside a flit
		}
		return false
	case *left == 0:
		*left = phit.FlitWords - 1
		return true
	default:
		*left--
		return false
	}
}

// portOK checks that input i's phit p is routed to an existing output
// port; a RouteError drops it.
func (c *Core) portOK(i, port int, p *phit.Phit) bool {
	if port >= 0 && port < c.arity {
		return true
	}
	c.routeError(i, port, p)
	return false
}

// routeError is portOK's report, kept out of line so that portOK inlines
// into both datapaths.
func (c *Core) routeError(i, port int, p *phit.Phit) {
	c.violate(fault.RouteError, fmt.Sprintf("input %d routed to non-existent port %d (conn %d), phit dropped",
		i, port, p.Meta.Conn))
}

// put switches p onto dst, the word it is routed to on output port, and
// traces a RouterForward when p starts a flit. TDM contention-freedom means at most one input
// targets each output word; hitting a collision is a broken allocation,
// not an arbitration event. In collecting mode the first-switched phit
// wins and the collider is dropped — hardware would garble both, but
// keeping one preserves more observable behaviour downstream.
func (c *Core) put(dst, p *phit.Phit, port int, start bool) {
	if dst.Valid || start && c.tr != nil {
		c.putSlow(dst, p, port)
		return
	}
	*dst = *p
}

// putSlow is put for a collision or a traced flit start, kept out of line
// so that put inlines into both datapaths.
func (c *Core) putSlow(dst, p *phit.Phit, port int) {
	if dst.Valid {
		c.violate(fault.SlotContention, fmt.Sprintf("TDM contention on output %d between connections %d and %d — slot allocation violated",
			port, dst.Meta.Conn, p.Meta.Conn))
		return
	}
	*dst = *p
	c.tr.Emit(trace.Event{Time: c.now, Kind: trace.RouterForward, Conn: p.Meta.Conn,
		Seq: p.Meta.Seq, Arg: int64(port), Slot: trace.NoSlot})
}

// violate reports one envelope violation of this router at the current
// simulation time.
func (c *Core) violate(kind fault.Kind, detail string) {
	fault.Report(c.rep, fault.Violation{Kind: kind, Component: "router " + c.name, Time: c.now, Slot: fault.NoSlot, Detail: detail})
}

// Component adapts a Core to the simulation engine on word links
// (mesochronous mode, synchronous networks with a fault reporter, and
// tests): each cycle of the router's clock its inputs are read off wires
// and its outputs driven onto wires. The ports are concrete wires, not
// interfaces: a phit is 56 bytes, and an interface method returns it by
// value, once per port per cycle.
type Component struct {
	core *Core
	clk  *clock.Clock

	in  []*sim.Wire[phit.Phit]
	out []*sim.Wire[phit.Phit]
	// sampled receives this cycle's inputs and is swapped with the core's
	// stage-1 registers in Update, so an input is copied once, off its
	// wire. An unconnected input is never written and stays idle in both
	// buffers.
	sampled []phit.Phit
	outBuf  []phit.Phit
}

// NewComponent wraps a new Core for the engine. Inputs and outputs are
// connected afterwards with ConnectIn/ConnectOut; unconnected ports read
// idle and discard idle-only output (driving a valid phit to an
// unconnected output panics — it means a route leaves the network).
func NewComponent(name string, arity int, layout phit.HeaderLayout, clk *clock.Clock) *Component {
	return &Component{
		core:    NewCore(name, arity, layout),
		clk:     clk,
		in:      make([]*sim.Wire[phit.Phit], arity),
		out:     make([]*sim.Wire[phit.Phit], arity),
		sampled: make([]phit.Phit, arity),
	}
}

// ConnectIn attaches the wire read by input port i.
func (r *Component) ConnectIn(i int, w *sim.Wire[phit.Phit]) { r.in[i] = w }

// ConnectOut attaches the wire driven by output port i.
func (r *Component) ConnectOut(i int, w *sim.Wire[phit.Phit]) { r.out[i] = w }

// Name implements sim.Component.
func (r *Component) Name() string { return r.core.name }

// Clock implements sim.Component.
func (r *Component) Clock() *clock.Clock { return r.clk }

// SetReporter routes the wrapped core's envelope checks to r.
func (r *Component) SetReporter(rep fault.Reporter) { r.core.SetReporter(rep) }

// SetTracer installs the wrapped core's lifecycle-event emitter.
func (r *Component) SetTracer(e *trace.Emitter) { r.core.SetTracer(e) }

// Update implements sim.Component.
func (r *Component) Update(now clock.Time) {
	for i, w := range r.in {
		if w != nil {
			r.sampled[i] = w.Read()
		}
	}
	c := r.core
	c.now = now
	r.outBuf = c.switchAndParse(r.outBuf)
	c.reg1, r.sampled = r.sampled, c.reg1 // stage 1 latches the sampled inputs
	for i, w := range r.out {
		if w != nil {
			fault.DrivePhit(w, &r.outBuf[i])
		} else if r.outBuf[i].Valid {
			c.violate(fault.RouteError, fmt.Sprintf("valid phit for unconnected output %d (conn %d), phit dropped",
				i, r.outBuf[i].Meta.Conn))
		}
	}
}
