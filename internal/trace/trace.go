package trace

import (
	"fmt"
	"slices"

	"repro/internal/clock"
	"repro/internal/phit"
)

// Kind classifies one lifecycle event.
type Kind uint8

const (
	// Inject: a payload word was accepted into the source NI's IP-side
	// FIFO (the start of the latency span the paper's requirements cover).
	Inject Kind = iota
	// Send: a payload word left the source NI onto the network.
	// Ref holds the word's injection instant.
	Send
	// SlotStart: an NI began a flit in an owned TDM slot. Slot is the
	// table slot, Arg the number of payload words carried (0 for a
	// credit-only or padding flit).
	SlotStart
	// RouterForward: a router switched one flit to an output port
	// (Arg = output port index). Emitted at the flit's first word and
	// stamped with that word's connection and sequence.
	RouterForward
	// LinkForward: a mesochronous link stage FSM began forwarding one
	// flit toward its reader.
	LinkForward
	// Eject: a payload word was delivered at the destination NI.
	// Ref holds the word's injection instant, so Time-Ref is the
	// end-to-end latency.
	Eject
	// Credit: end-to-end credits returned to a sender (Conn is the
	// credited out-connection, Arg the credit count in words).
	Credit
	// Blocked: an owned slot carried no payload because the connection's
	// end-to-end credits were exhausted (the back-pressure signal of
	// paper Section IV.A).
	Blocked
	// Occupancy: a buffer's depth reached a new high-water mark
	// (Arg = words). Emitted only when the mark rises, so steady-state
	// traffic costs nothing; sinks keep the maximum.
	Occupancy
	// WrapperFire: an asynchronous wrapper completed one dataflow
	// iteration (Arg = cycles it spent stalled since the previous fire).
	WrapperFire
	// CRCDrop: the reliability layer discarded an arriving flit or phit,
	// for any of its drop reasons — a failed checksum, a truncated or
	// out-of-order flit, a duplicate (Arg = drop reason, see
	// reliable.Drop*; Seq = the flit's sideband sequence number, or the
	// phit count for truncation drops). The name and its "crcdrop"
	// string predate the other reasons and are kept for the artifacts.
	CRCDrop
	// Retransmit: a windowed sender re-sent one unacked flit in a
	// go-back-N round (Seq = the flit's sequence number, Arg = the
	// consecutive timeout-round count).
	Retransmit
	// AckAdvance: a cumulative ack advanced a sender's retransmission
	// window (Seq = the new window base, Arg = payload words returned to
	// the credit counter).
	AckAdvance
	// Recovered: in-order delivery resumed on a tracked connection after
	// loss (Arg = the head-of-line stall in picoseconds — the recovery
	// latency the histograms aggregate).
	Recovered
	// Quarantine: a connection exhausted its retry budget and stopped
	// transmitting (Arg = flits left unacked).
	Quarantine
	// Reroute: a quarantined connection was closed and re-admitted over an
	// alternate path by the self-healing layer (Arg = recovery latency in
	// picoseconds, from the quarantine instant to the instant the
	// replacement connection was admitted; Ref = the quarantine instant).
	// Emitted with the *original* connection id, so its metrics show the
	// service interruption it survived.
	Reroute

	kindCount = int(Reroute) + 1
)

var kindNames = [kindCount]string{
	Inject:        "inject",
	Send:          "send",
	SlotStart:     "slot",
	RouterForward: "route",
	LinkForward:   "link",
	Eject:         "eject",
	Credit:        "credit",
	Blocked:       "blocked",
	Occupancy:     "occupancy",
	WrapperFire:   "fire",
	CRCDrop:       "crcdrop",
	Retransmit:    "rexmit",
	AckAdvance:    "ack",
	Recovered:     "recovered",
	Quarantine:    "quarantine",
	Reroute:       "reroute",
}

func (k Kind) String() string {
	if int(k) < kindCount {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// busyCycles is each kind's link-occupancy weight in clock cycles, used by
// Metrics for utilisation: every per-flit event occupies its output for a
// whole flit cycle (the TDM slot is reserved end to end regardless of how
// many words it carries).
var busyCycles = [kindCount]int64{
	SlotStart:     phit.FlitWords,
	RouterForward: phit.FlitWords,
	LinkForward:   phit.FlitWords,
	WrapperFire:   phit.FlitWords,
}

// NoSlot marks an event with no meaningful TDM slot.
const NoSlot int32 = -1

// A CompID is an interned component name (see Bus.Emitter).
type CompID int32

// An Event is one observation in a flit's lifecycle. Fields that do not
// apply to a Kind are zero (Slot is NoSlot where meaningless).
type Event struct {
	Time clock.Time  // exact simulation instant, ps
	Ref  clock.Time  // secondary instant (injection time on Send/Eject)
	Seq  int64       // payload word sequence number within the connection
	Arg  int64       // kind-specific argument (port, words, depth, cycles)
	Conn phit.ConnID // connection, or phit.None
	Comp CompID      // emitting component
	Slot int32       // TDM slot, or NoSlot
	Kind Kind
}

// A Sink receives every event emitted on a Bus.
type Sink interface {
	Event(ev Event)
}

// An Epoch is one recorded stretch of events that repeats every Len
// picoseconds, as hyperperiod replay re-emits it. Copy e of the epoch is
// every event shifted e*Len forward in time, its Ref with it where Ref is
// set, and its Seq advanced by e*DSeq[i] (0 for an event whose sequence
// number does not move).
type Epoch struct {
	Events []Event
	DSeq   []int64 // per event, parallel to Events
	Len    clock.Duration
}

// At returns event i of copy e.
func (ep *Epoch) At(i int, e int64) Event {
	ev := ep.Events[i]
	dt := clock.Time(e) * ep.Len
	ev.Time += dt
	if ev.Ref != 0 {
		ev.Ref += dt
	}
	ev.Seq += e * ep.DSeq[i]
	return ev
}

// A Folder is a sink that can take many copies of an epoch at once.
// Fold(ep, first, count) must leave the sink exactly as receiving, in
// order, every event of copies first, first+1, ..., first+count-1 would;
// it must not keep ep, whose events the caller reuses.
//
// An aggregating sink folds (Metrics does), and so may a sink that checks
// events, by induction over the copies: the conformance auditor checks
// concrete copies one by one until one reports nothing and leaves its
// own state as it found it, shifted by one epoch, which proves that
// every later copy repeats its verdicts (audit.Auditor.Fold). Replay
// vouches for nothing: the recorded epoch reached the sink live, and
// every copy is At of it. A sink that keeps events receives every
// shifted event one by one; Chrome buffers every event.
type Folder interface {
	Sink
	Fold(ep *Epoch, first, count int64)
}

// epochChunk bounds the shifted copies EmitEpochs builds at a time for
// sinks that do not fold, so its buffer does not grow with the epoch.
const epochChunk = 256

// A Deferrable sink may take its events on the bus's worker goroutine,
// in chunks, while the simulation goes on: a sink whose work is its own
// and whose results are read only through accessors that call
// Bus.Drain first. Metrics, Chrome and an auditor that reports to a
// collector defer. A sink that acts on the simulation, or whose state the
// emitting side reads without a drain, stays inline: it receives each
// event inside the Emit call, as a plain Sink does.
type Deferrable interface {
	Sink
	// Deferred reports whether the sink takes its events on the worker.
	// The bus asks when the sink is attached.
	Deferred() bool
}

// chunkEvents sizes the chunks the deferred sinks take: 2048 events,
// 96 KiB. A smaller chunk wakes the worker more often than it saves in
// cache misses on the emitting side; a larger one no longer stays in its
// caches.
const chunkEvents = 2048

// A Bus fans events out to sinks and interns component names. Its
// methods and emitters are called from one goroutine, the simulation's;
// deferred sinks (see Deferrable) may run on one worker goroutine beside
// it. Emit hands an event to every sink at once until Queue starts
// deferred delivery: from then on Emit hands it to the inline sinks and
// appends it to the current chunk; a full chunk goes to the worker, and
// at most one chunk is in flight, so the emitting side waits only when
// the worker falls a whole chunk behind. The engine queues once a Run has
// gone on long enough to gain from the worker (sim.Engine.Run). Every
// sink receives every event in emission order.
//
// Drain brings the deferred sinks up to date and ends the queueing: it
// waits for the chunk in flight, stops the worker and delivers the
// partial chunk on the calling goroutine. The bus drains itself before
// Attach, Detach, SetSilent, interning and EmitEpochs; a deferred sink
// drains before every accessor; the engine drains its tracer before timer
// callbacks and before Run returns. A sink panic on the worker is raised
// again, with the same value, by the next Drain.
type Bus struct {
	comps  []string
	byName map[string]CompID

	// sinks holds every attachment in order, and deferred its Deferrable
	// ones. direct is what Emit delivers to: sinks, or while the bus
	// queues, queueing: the other sinks and then the bus's tap, which
	// appends to the chunk.
	sinks    []Sink
	deferred []Sink
	direct   []Sink
	queueing []Sink

	// silent suppresses delivery. The replay fast path mutes the bus
	// while it resimulates instants whose events were already emitted
	// from the recorded schedule, keeping deopt trace-invisible.
	silent bool

	// Deferred delivery: chunk is being filled, spare is the chunk in
	// flight while busy. The worker runs from a hand-off to the next
	// Drain; it takes chunks on jobs (nil stops it), answers each on done,
	// and records a sink's panic in failed before answering.
	chunk, spare []Event
	jobs         chan []Event
	done         chan struct{}
	running      bool
	busy         bool
	failed       any

	// EmitEpochs scratch: the sinks that do not fold, and one chunk of
	// shifted copies for them.
	plain   []Sink
	shifted []Event
}

// NewBus returns an empty bus.
func NewBus() *Bus {
	return &Bus{byName: make(map[string]CompID)}
}

// Attach adds a sink; every subsequent event is delivered to it.
func (b *Bus) Attach(s Sink) {
	b.Drain()
	b.sinks = append(b.sinks, s)
	b.split()
}

// Detach removes every attachment of s; events no longer reach it.
func (b *Bus) Detach(s Sink) {
	b.Drain()
	b.sinks = slices.DeleteFunc(b.sinks, func(t Sink) bool { return t == s })
	b.split()
}

// split sorts the attached sinks into deferred ones and the rest. The
// worker is stopped (the caller drained).
func (b *Bus) split() {
	b.queueing, b.deferred = b.queueing[:0], b.deferred[:0]
	for _, s := range b.sinks {
		if d, ok := s.(Deferrable); ok && d.Deferred() {
			b.deferred = append(b.deferred, s)
		} else {
			b.queueing = append(b.queueing, s)
		}
	}
	b.queueing = append(b.queueing, tap{b})
	if len(b.deferred) > 0 && b.chunk == nil {
		b.chunk = make([]Event, 0, chunkEvents)
		b.spare = make([]Event, 0, chunkEvents)
	}
	b.direct = b.sinks
}

// Queue starts deferred delivery until the next drain: the deferred sinks
// take the events emitted from here on in chunks, on the worker. It does
// nothing on a nil bus or one with no deferred sink attached.
func (b *Bus) Queue() {
	if b != nil && len(b.deferred) > 0 {
		b.direct = b.queueing
	}
}

// tap is the bus's own last sink while it queues: it appends each event
// to the chunk.
type tap struct{ b *Bus }

func (t tap) Event(ev Event) {
	b := t.b
	b.chunk = append(b.chunk, ev)
	if len(b.chunk) == chunkEvents {
		b.handOff()
	}
}

// Component interns a component name, returning its stable id. Interning
// order is the registration order, which wiring code keeps deterministic.
func (b *Bus) Component(name string) CompID {
	if id, ok := b.byName[name]; ok {
		return id
	}
	b.Drain() // deferred sinks read the names
	id := CompID(len(b.comps))
	b.comps = append(b.comps, name)
	b.byName[name] = id
	return id
}

// ComponentName returns the name behind an interned id.
func (b *Bus) ComponentName(id CompID) string {
	if int(id) < 0 || int(id) >= len(b.comps) {
		return fmt.Sprintf("comp(%d)", int32(id))
	}
	return b.comps[id]
}

// NumComponents returns how many component names are interned: valid ids
// are 0 up to it.
func (b *Bus) NumComponents() int { return len(b.comps) }

// Components returns the interned component names in id order.
func (b *Bus) Components() []string {
	return append([]string(nil), b.comps...)
}

// Emit delivers one event to every attached sink.
func (b *Bus) Emit(ev Event) {
	if b.silent {
		return
	}
	for _, s := range b.direct {
		s.Event(ev)
	}
}

// handOff sends the full chunk to the worker, starting it if it is not
// running, once the chunk before it has been taken.
func (b *Bus) handOff() {
	b.wait()
	if b.jobs == nil {
		b.jobs = make(chan []Event, 1)
		b.done = make(chan struct{}, 1)
	}
	if !b.running {
		b.running = true
		go b.work()
	}
	full := b.chunk
	b.chunk, b.spare = b.spare[:0], full
	b.busy = true
	b.jobs <- full
}

// wait returns once the chunk in flight, if any, has been taken.
func (b *Bus) wait() {
	if b.busy {
		<-b.done
		b.busy = false
	}
}

// work is the worker goroutine: it delivers each chunk it is sent to the
// deferred sinks and answers on done, until it is sent nil, which it
// answers as it exits.
func (b *Bus) work() {
	for evs := range b.jobs {
		if evs != nil {
			b.take(evs)
		}
		b.done <- struct{}{}
		if evs == nil {
			return
		}
	}
}

// take delivers a chunk to every deferred sink on the worker. Once a sink
// has panicked nothing more is delivered: the panic ends the run at the
// next Drain, as it would have inside Emit.
func (b *Bus) take(evs []Event) {
	if b.failed != nil {
		return
	}
	defer func() {
		if v := recover(); v != nil {
			b.failed = v
		}
	}()
	deliver(b.deferred, evs)
}

// deliver hands a run of events to every sink of sinks, sink by sink.
func deliver(sinks []Sink, evs []Event) {
	for _, s := range sinks {
		for i := range evs {
			s.Event(evs[i])
		}
	}
}

// Drain returns once every event emitted so far has reached every
// deferred sink, and ends the queueing: it waits for the chunk in flight,
// stops the worker and delivers the partial chunk on the calling
// goroutine. A panic a sink raised on the worker is raised here again.
// Drain on a nil bus, or one that is not queueing, does nothing.
func (b *Bus) Drain() {
	if b == nil {
		return
	}
	b.wait()
	if b.running {
		b.jobs <- nil
		<-b.done
		b.running = false
	}
	b.direct = b.sinks
	if v := b.failed; v != nil {
		b.failed = nil
		b.chunk = b.chunk[:0]
		panic(v)
	}
	if len(b.chunk) > 0 {
		evs := b.chunk
		b.chunk = b.chunk[:0]
		deliver(b.deferred, evs)
	}
}

// EmitEpochs delivers copies first, first+1, ..., first+count-1 of ep:
// in one Fold call to each Folder, and event by event, in order, to every
// other sink. It drains first and delivers on the calling goroutine.
func (b *Bus) EmitEpochs(ep *Epoch, first, count int64) {
	if b.silent || count <= 0 || len(ep.Events) == 0 {
		return
	}
	b.Drain()
	b.plain = b.plain[:0]
	for _, s := range b.sinks {
		if f, ok := s.(Folder); ok {
			f.Fold(ep, first, count)
		} else {
			b.plain = append(b.plain, s)
		}
	}
	if len(b.plain) == 0 {
		return
	}
	if b.shifted == nil {
		b.shifted = make([]Event, 0, epochChunk)
	}
	buf := b.shifted[:0]
	for e := first; e < first+count; e++ {
		for i := range ep.Events {
			if len(buf) == epochChunk {
				deliver(b.plain, buf)
				buf = buf[:0]
			}
			buf = append(buf, ep.At(i, e))
		}
	}
	deliver(b.plain, buf)
}

// SetSilent suppresses (true) or restores (false) event delivery.
func (b *Bus) SetSilent(on bool) {
	b.Drain()
	b.silent = on
}

// Emitter returns a per-component emission handle. Components store the
// handle (nil when tracing is disabled) and test it before building an
// Event, which keeps the disabled path to a single branch.
func (b *Bus) Emitter(name string) *Emitter {
	if b == nil {
		return nil
	}
	return &Emitter{bus: b, comp: b.Component(name)}
}

// An Emitter stamps events with its component id and forwards them to the
// bus. A nil *Emitter means tracing is disabled.
type Emitter struct {
	bus  *Bus
	comp CompID
}

// Emit stamps ev.Comp and delivers the event. Callers must nil-test the
// emitter first (the zero-cost contract); Emit on a nil emitter panics.
func (e *Emitter) Emit(ev Event) {
	if e.bus.silent {
		return
	}
	ev.Comp = e.comp
	for _, s := range e.bus.direct {
		s.Event(ev)
	}
}

// Comp returns the emitter's interned component id.
func (e *Emitter) Comp() CompID { return e.comp }
