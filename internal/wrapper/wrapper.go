package wrapper

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/fault"
	"repro/internal/ni"
	"repro/internal/phit"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/trace"
)

// InitialTokens is the uniform initial marking of every channel. Two
// tokens decouple neighbouring fire schedules enough that the steady-state
// iteration period equals the flit cycle of the slowest element (with one
// token, the round-trip dependency between neighbours would throttle the
// network below full rate).
const InitialTokens = 2

// ChannelCapacity is the token capacity of a channel (the combined OPI and
// IPI FIFO depth in flits).
const ChannelCapacity = 4

// Channel is the asynchronous link between two wrapped elements.
type Channel = sim.TokenChannel[phit.Flit]

// NewChannel builds a primed channel. delay is the token transfer latency
// (registered fire plus wire), typically two nominal clock cycles.
func NewChannel(name string, delay clock.Duration) *Channel {
	ch := sim.NewTokenChannel[phit.Flit](name, ChannelCapacity, delay)
	for i := 0; i < InitialTokens; i++ {
		ch.Prime(phit.Flit{})
	}
	return ch
}

// An Actor is a network element that advances in whole flit cycles.
type Actor interface {
	// Fire consumes one token per input port and produces one per output
	// port. The tokens are the channels' own: in[i] must only be read, and
	// out[i] holds a stale token that Fire must overwrite in full.
	Fire(now clock.Time, in, out []*phit.Flit)
	// Ports returns the number of input/output ports.
	Ports() int
	// ActorName identifies the element.
	ActorName() string
}

// RouterActor adapts an aelite router core.
type RouterActor struct {
	Core *router.Core
}

// NewRouterActor wraps a router core.
func NewRouterActor(c *router.Core) *RouterActor { return &RouterActor{Core: c} }

// Fire implements Actor.
func (r *RouterActor) Fire(now clock.Time, in, out []*phit.Flit) {
	r.Core.SetNow(now)
	r.Core.StepFlitDirect(in, out)
}

// Ports implements Actor.
func (r *RouterActor) Ports() int { return r.Core.Arity() }

// ActorName implements Actor.
func (r *RouterActor) ActorName() string { return r.Core.Name() }

// NIActor adapts an aelite NI (which must not itself be registered with
// the engine).
type NIActor struct {
	NI *ni.NI
}

// NewNIActor wraps an NI.
func NewNIActor(n *ni.NI) *NIActor { return &NIActor{NI: n} }

// Fire implements Actor.
func (a *NIActor) Fire(now clock.Time, in, out []*phit.Flit) {
	a.NI.StepFlit(now, in[0], out[0])
}

// Ports implements Actor.
func (a *NIActor) Ports() int { return 1 }

// ActorName implements Actor.
func (a *NIActor) ActorName() string { return a.NI.Name() }

// A Wrapper is the engine component: PIC plus port interfaces around an
// actor.
type Wrapper struct {
	name  string
	clk   *clock.Clock
	actor Actor

	in  []*Channel // nil for unconnected ports
	out []*Channel

	busy    int // cycles remaining in the current fire window
	fires   int64
	stalled int64 // cycles spent waiting for tokens or space

	// stallFault is an injected PIC stall: cycles during which the
	// wrapper refuses to fire even when its PIs are ready, exercising the
	// empty-token liveness machinery.
	stallFault int

	// rep receives envelope violations; nil preserves fail-fast panics.
	rep fault.Reporter

	// tr, when non-nil, receives one WrapperFire event per completed
	// dataflow iteration, with the cumulative stall count as Arg.
	tr *trace.Emitter

	// inTok and outTok are the tokens of one fire, in the channels' rings.
	// An unconnected input reads idle; an unconnected output writes its
	// entry of spill, where a flit is an envelope violation.
	inTok, outTok []*phit.Flit
	idle          phit.Flit
	spill         []phit.Flit
}

// New builds a wrapper around an actor on its own clock. Connect ports
// with ConnectIn/ConnectOut before registering with the engine.
func New(name string, clk *clock.Clock, actor Actor) *Wrapper {
	w := &Wrapper{
		name:   name,
		clk:    clk,
		actor:  actor,
		in:     make([]*Channel, actor.Ports()),
		out:    make([]*Channel, actor.Ports()),
		inTok:  make([]*phit.Flit, actor.Ports()),
		outTok: make([]*phit.Flit, actor.Ports()),
		spill:  make([]phit.Flit, actor.Ports()),
	}
	for i := range w.spill {
		w.inTok[i], w.outTok[i] = &w.idle, &w.spill[i]
	}
	return w
}

// ConnectIn attaches the channel feeding input port i.
func (w *Wrapper) ConnectIn(i int, ch *Channel) { w.in[i] = ch }

// ConnectOut attaches the channel driven by output port i.
func (w *Wrapper) ConnectOut(i int, ch *Channel) { w.out[i] = ch }

// SetReporter routes the wrapper's envelope checks to r; nil restores the
// fail-fast panics.
func (w *Wrapper) SetReporter(r fault.Reporter) { w.rep = r }

// SetTracer installs the wrapper's lifecycle-event emitter; nil disables
// tracing.
func (w *Wrapper) SetTracer(e *trace.Emitter) { w.tr = e }

// Stall injects a PIC stall: for the given number of this wrapper's clock
// cycles the PIC will not fire regardless of token availability, modelling
// a slow or hung element behind the port interfaces.
func (w *Wrapper) Stall(cycles int) {
	if cycles > 0 {
		w.stallFault += cycles
	}
}

// Actor returns the wrapped dataflow actor.
func (w *Wrapper) Actor() Actor { return w.actor }

// Fires returns the number of completed dataflow iterations.
func (w *Wrapper) Fires() int64 { return w.fires }

// Stalled returns the number of cycles the PIC waited for a neighbour.
func (w *Wrapper) Stalled() int64 { return w.stalled }

// Name implements sim.Component.
func (w *Wrapper) Name() string { return w.name }

// Clock implements sim.Component.
func (w *Wrapper) Clock() *clock.Clock { return w.clk }

// Idle implements sim.Sleeper: the edges of an injected stall and of the
// current fire window are known to do nothing but count. A wrapper waiting
// for a token or for space promises none, and is dispatched every edge.
func (w *Wrapper) Idle(now clock.Time) int64 { return int64(w.stallFault + w.busy) }

// Skip implements sim.Sleeper: it spends n edges as Update would, on the
// injected stall first, counting them stalled, then on the fire window.
func (w *Wrapper) Skip(n int64) {
	s := min(n, int64(w.stallFault))
	w.stallFault -= int(s)
	w.stalled += s
	w.busy -= int(n - s)
}

// Update implements sim.Component.
func (w *Wrapper) Update(now clock.Time) {
	if w.stallFault > 0 {
		w.stallFault--
		w.stalled++
		return
	}
	if w.busy > 0 {
		w.busy--
		return
	}
	// PIC firing rule: every connected IPI has a token, every connected
	// OPI has space.
	for _, ch := range w.in {
		if ch != nil && !ch.Valid(now) {
			w.stalled++
			return
		}
	}
	for _, ch := range w.out {
		if ch != nil && !ch.CanPush() {
			w.stalled++
			return
		}
	}
	for i, ch := range w.in {
		if ch != nil {
			w.inTok[i] = ch.Pop(now)
		}
	}
	for i, ch := range w.out {
		if ch != nil {
			w.outTok[i] = ch.Push(now)
		}
	}
	w.actor.Fire(now, w.inTok, w.outTok)
	for i, ch := range w.out {
		if ch == nil && !w.spill[i].Empty() {
			fault.Report(w.rep, fault.Violation{
				Kind: fault.RouteError, Component: "wrapper " + w.name, Time: now, Slot: fault.NoSlot,
				Detail: fmt.Sprintf("flit for unconnected output %d, flit dropped", i),
			})
		}
	}
	w.fires++
	w.busy = phit.FlitWords - 1 // a fire occupies one whole flit cycle
	if w.tr != nil {
		w.tr.Emit(trace.Event{Time: now, Kind: trace.WrapperFire, Arg: w.stalled, Slot: trace.NoSlot})
	}
}
