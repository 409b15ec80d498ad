package ni

import (
	"fmt"
	"slices"

	"repro/internal/clock"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/reliable"
	"repro/internal/sim"
	"repro/internal/slots"
	"repro/internal/trace"
)

// SendCapacity is the depth, in words, of the IP-to-NI bi-synchronous FIFO
// of each connection.
const SendCapacity = 32

// OutConnConfig configures one connection sourced at this NI.
type OutConnConfig struct {
	ID phit.ConnID
	// Headers holds, per injection slot, the encoded header word (path +
	// destination queue id) with a zero credit field; per-packet credits
	// are merged in. The allocator may reserve different (equal-length)
	// paths for different slots of one connection, and each packet must
	// follow the path its slot was reserved on.
	Headers map[int]phit.Word
	// InitialCredits is the remote receive queue capacity in words.
	InitialCredits int
	// PairedIn names the in-connection at this NI whose owed credits
	// ride on this connection's headers (phit.None if no pairing).
	PairedIn phit.ConnID
}

// InConnConfig configures one connection terminating at this NI.
type InConnConfig struct {
	ID phit.ConnID
	// QID is this connection's receive queue index, as encoded in the
	// headers the sender builds.
	QID int
	// CreditFor names the out-connection at this NI that is credited by
	// the credit field of this connection's incoming headers (phit.None
	// if this connection's headers never carry credits for us).
	CreditFor phit.ConnID
}

type outConn struct {
	cfg     OutConnConfig
	credits int
	queue   *sim.Bisync[phit.Meta] // IP -> NI
	maxOcc  int                    // traced high-water mark of the queue depth
	// pairedIn is cfg.PairedIn resolved, linked when the second of the two
	// is added; nil while that in-connection is not registered.
	pairedIn *inConn

	// Hyperperiod-boundary snapshot of maxOcc (see replay.go).
	mMaxOcc int
}

type inConn struct {
	cfg InConnConfig
	// creditFor is cfg.CreditFor resolved, like outConn.pairedIn.
	creditFor *outConn
	owed      int // credits owed to the sender: words delivered, which the IP drains at once
	rx        ConnStats
}

// An NI is the network interface simulation component.
type NI struct {
	name   string
	clk    *clock.Clock
	layout phit.HeaderLayout
	table  *slots.Table

	// The links to and from the attached router: word wires, or the flit
	// links of a synchronous network that nothing watches, on which the NI
	// drives its flit once per flit cycle and receives word by word.
	in    *sim.Wire[phit.Phit]
	out   *sim.Wire[phit.Phit]
	inFl  *fault.FlitLink
	outFl *fault.FlitLink

	// The NI's connections, each list in id order with its ids mirrored in
	// a flat slice: a lookup by id (Offer, the accessors) is a binary
	// search over a handful of int32s, never a hash, and never a table
	// indexed by network-wide id. Everything the per-flit path needs beyond
	// that is resolved to pointers when a connection is added (pairedIn,
	// creditFor, byQID) or when a table slot is first used or changes owner
	// (slotOf).
	outs   []*outConn
	outIDs []phit.ConnID
	ins    []*inConn
	inIDs  []phit.ConnID
	byQID  []*inConn   // by receive queue id, grown to the highest registered
	slotOf []slotEntry // by table slot, see slotEntry

	// The word and slot indices of the last Update, and the edge and clock
	// they were derived for: while the clock ticks undisturbed they advance
	// by one, and only a first edge, a time jump or a moved clock divides.
	word, slot int
	nextEdge   clock.Time
	edgePeriod clock.Duration
	edgePhase  clock.Duration

	// Sender state. flitIndex counts the flit cycles StepFlit has begun: in
	// wrapper mode it, not the clock, indexes the slot table.
	flitIndex int64
	openConn  phit.ConnID
	flitBuf   [phit.FlitWords]phit.Phit

	// Receiver state. quiet is set at a flit edge whose incoming flit is
	// empty, on flit links with no reliability shell: the next two edges
	// have nothing to receive or drive.
	curIn    *inConn
	inPacket bool
	quiet    bool

	// wrapped is set once StepFlit has driven the NI at flit granularity
	// (wrapper mode); the engine's Update then refuses to run.
	wrapped bool

	// dropPacket discards the remainder of an incoming packet whose
	// header was unusable (unknown queue) in collecting mode.
	dropPacket bool

	// rep receives envelope violations (protocol breaks, flow-control
	// failures, packetisation state errors); nil preserves the original
	// fail-fast panics.
	rep fault.Reporter

	// tr, when non-nil, receives this NI's flit-lifecycle events
	// (injection, send, slot builds, ejection, credits, back-pressure).
	tr *trace.Emitter

	// rel, when non-nil, is the end-to-end reliability shell wrapped
	// around this NI's kernel ports: flits are CRC-stamped and windowed on
	// the way out and verified, filtered and acked on the way in. Nil (the
	// default) keeps the baseline protocol; the hot-path cost is then one
	// pointer test per phit.
	rel *reliable.Endpoint
}

// A slotEntry caches what buildFlit needs of one injection-table slot: the
// owner's connection state and the header of the path that slot was
// reserved on. The table is a live object anyone may rewrite, so an entry
// is trusted only while its owner still matches the table's.
type slotEntry struct {
	owner phit.ConnID
	oc    *outConn // nil: unowned, or not resolved yet
	hdr   phit.Word
}

// New builds an NI clocked by clk with the given header layout and slot
// table. in/out are the wires to and from the attached router (either may
// be nil for NIs used only in one direction, e.g. in unit tests).
func New(name string, clk *clock.Clock, layout phit.HeaderLayout, table *slots.Table,
	in, out *sim.Wire[phit.Phit]) *NI {
	if err := layout.Validate(); err != nil {
		panic(fmt.Sprintf("ni %s: %v", name, err))
	}
	return &NI{name: name, clk: clk, layout: layout, table: table, in: in, out: out,
		slotOf: make([]slotEntry, table.Size())}
}

// NewOnFlits builds an NI like New, on flit links to and from the attached
// router (either may be nil).
func NewOnFlits(name string, clk *clock.Clock, layout phit.HeaderLayout, table *slots.Table,
	in, out *fault.FlitLink) *NI {
	n := New(name, clk, layout, table, nil, nil)
	n.inFl, n.outFl = in, out
	return n
}

// AddOutConn registers a connection sourced at this NI.
func (n *NI) AddOutConn(cfg OutConnConfig) {
	if cfg.ID == phit.None {
		panic(fmt.Sprintf("ni %s: out connection with reserved id 0", n.name))
	}
	at, dup := slices.BinarySearch(n.outIDs, cfg.ID)
	if dup {
		panic(fmt.Sprintf("ni %s: duplicate out connection %d", n.name, cfg.ID))
	}
	if cfg.InitialCredits < 0 {
		panic(fmt.Sprintf("ni %s: connection %d negative credits", n.name, cfg.ID))
	}
	oc := &outConn{
		cfg:     cfg,
		credits: cfg.InitialCredits,
		queue:   sim.NewBisync[phit.Meta](fmt.Sprintf("%s.c%d.send", n.name, cfg.ID), SendCapacity, n.clk.Period),
	}
	if i, ok := slices.BinarySearch(n.inIDs, cfg.PairedIn); ok {
		oc.pairedIn = n.ins[i]
	}
	for _, ic := range n.ins {
		if ic.cfg.CreditFor == cfg.ID {
			ic.creditFor = oc
		}
	}
	n.outIDs = slices.Insert(n.outIDs, at, cfg.ID)
	n.outs = slices.Insert(n.outs, at, oc)
}

// AddInConn registers a connection terminating at this NI.
func (n *NI) AddInConn(cfg InConnConfig) {
	if cfg.ID == phit.None {
		panic(fmt.Sprintf("ni %s: in connection with reserved id 0", n.name))
	}
	at, dup := slices.BinarySearch(n.inIDs, cfg.ID)
	if dup {
		panic(fmt.Sprintf("ni %s: duplicate in connection %d", n.name, cfg.ID))
	}
	if n.inByQID(cfg.QID) != nil {
		panic(fmt.Sprintf("ni %s: duplicate queue id %d", n.name, cfg.QID))
	}
	if cfg.QID < 0 || cfg.QID > n.layout.MaxQID() {
		panic(fmt.Sprintf("ni %s: queue id %d outside layout range 0..%d", n.name, cfg.QID, n.layout.MaxQID()))
	}
	ic := &inConn{cfg: cfg}
	if i, ok := slices.BinarySearch(n.outIDs, cfg.CreditFor); ok {
		ic.creditFor = n.outs[i]
	}
	for _, oc := range n.outs {
		if oc.cfg.PairedIn == cfg.ID {
			oc.pairedIn = ic
		}
	}
	n.inIDs = slices.Insert(n.inIDs, at, cfg.ID)
	n.ins = slices.Insert(n.ins, at, ic)
	if cfg.QID >= len(n.byQID) {
		n.byQID = append(n.byQID, make([]*inConn, cfg.QID+1-len(n.byQID))...)
	}
	n.byQID[cfg.QID] = ic
}

// inByQID returns the in-connection of a receive queue, nil if none.
func (n *NI) inByQID(qid int) *inConn {
	if uint(qid) >= uint(len(n.byQID)) {
		return nil
	}
	return n.byQID[qid]
}

// Offer enqueues one word of payload for the connection from the IP side,
// returning false when the IP-side FIFO is full (the blocking write of the
// paper: the IP retries next cycle). now must be the caller's current
// time.
func (n *NI) Offer(now clock.Time, conn phit.ConnID, meta phit.Meta) bool {
	return n.offer(n.mustOut(conn), now, meta)
}

// OfferTo returns the connection's Offer with the connection looked up
// once, here (traffic.Resolver). It panics for an unknown connection.
func (n *NI) OfferTo(conn phit.ConnID) func(now clock.Time, meta phit.Meta) bool {
	oc := n.mustOut(conn)
	return func(now clock.Time, meta phit.Meta) bool { return n.offer(oc, now, meta) }
}

// offer is Offer on a resolved connection.
func (n *NI) offer(oc *outConn, now clock.Time, meta phit.Meta) bool {
	if !oc.queue.CanPush() {
		return false
	}
	meta.Conn = oc.cfg.ID
	oc.queue.Push(now, meta)
	if n.tr != nil {
		n.tr.Emit(trace.Event{Time: now, Kind: trace.Inject, Conn: meta.Conn, Seq: meta.Seq, Slot: trace.NoSlot})
		if l := oc.queue.Len(); l > oc.maxOcc {
			oc.maxOcc = l
			n.tr.Emit(trace.Event{Time: now, Kind: trace.Occupancy, Arg: int64(l), Slot: trace.NoSlot})
		}
	}
	return true
}

// SendQueueSpace returns the free space of the connection's IP-side FIFO.
func (n *NI) SendQueueSpace(conn phit.ConnID) int {
	oc := n.mustOut(conn)
	return oc.queue.Cap() - oc.queue.Len()
}

func (n *NI) mustOut(conn phit.ConnID) *outConn {
	i, ok := slices.BinarySearch(n.outIDs, conn)
	if !ok {
		panic(fmt.Sprintf("ni %s: unknown out connection %d", n.name, conn))
	}
	return n.outs[i]
}

func (n *NI) mustIn(conn phit.ConnID) *inConn {
	i, ok := slices.BinarySearch(n.inIDs, conn)
	if !ok {
		panic(fmt.Sprintf("ni %s: unknown in connection %d", n.name, conn))
	}
	return n.ins[i]
}

// SetReporter routes the NI's envelope checks to r; nil restores the
// fail-fast panics. An installed reliability endpoint follows the NI's
// reporter.
func (n *NI) SetReporter(r fault.Reporter) {
	n.rep = r
	if n.rel != nil {
		n.rel.SetReporter(r)
	}
}

// SetTracer installs the NI's lifecycle-event emitter; nil disables
// tracing (the default, and free: every emission site is a pointer test).
// An installed reliability endpoint follows the NI's emitter.
func (n *NI) SetTracer(e *trace.Emitter) {
	n.tr = e
	if n.rel != nil {
		n.rel.SetTracer(e)
	}
}

// SetReliable installs the end-to-end reliability endpoint around this
// NI's kernel ports (nil restores the baseline protocol). The endpoint
// inherits the NI's reporter and tracer and returns acked words through
// the NI's credit counters.
func (n *NI) SetReliable(ep *reliable.Endpoint) {
	n.rel = ep
	if ep != nil {
		ep.SetReporter(n.rep)
		ep.SetTracer(n.tr)
		ep.BindCredit(n.ackCredits)
	}
}

// Reliable returns the installed reliability endpoint (nil when off).
func (n *NI) Reliable() *reliable.Endpoint { return n.rel }

// ackCredits returns cumulative-ack progress to a sender's end-to-end
// credit counter — the reliable-mode replacement for the in-header credit
// field (whose incremental deltas a lossy link could destroy).
func (n *NI) ackCredits(now clock.Time, conn phit.ConnID, words int) {
	oc := n.mustOut(conn)
	oc.credits += words
	if oc.credits > oc.cfg.InitialCredits {
		fault.Report(n.rep, fault.Violation{
			Kind: fault.CreditError, Component: "ni " + n.name, Time: now, Slot: fault.NoSlot,
			Detail: fmt.Sprintf("connection %d ack credits %d exceed capacity %d, clamped",
				conn, oc.credits, oc.cfg.InitialCredits),
		})
		oc.credits = oc.cfg.InitialCredits
	}
	if n.tr != nil {
		n.tr.Emit(trace.Event{Time: now, Kind: trace.Credit, Conn: conn,
			Arg: int64(words), Slot: trace.NoSlot})
	}
}

// Name implements sim.Component.
func (n *NI) Name() string { return n.name }

// Clock implements sim.Component.
func (n *NI) Clock() *clock.Clock { return n.clk }

// Update implements sim.Component.
func (n *NI) Update(now clock.Time) {
	if n.wrapped {
		panic(fmt.Sprintf("ni %s: engine Update on a wrapper-mode NI", n.name))
	}
	if now == n.nextEdge && n.clk.Period == n.edgePeriod && n.clk.Phase == n.edgePhase {
		// The edge after the last one, on an unmoved clock.
		if n.word++; n.word == phit.FlitWords {
			n.word = 0
			if n.slot++; n.slot >= n.table.Size() {
				n.slot = 0
			}
		}
	} else {
		edge, ok := n.clk.EdgeIndex(now)
		if !ok {
			panic(fmt.Sprintf("ni %s: update off-edge at %d ps", n.name, now))
		}
		n.word = int(edge % phit.FlitWords)
		n.slot = int((edge / phit.FlitWords) % int64(n.table.Size()))
		n.edgePeriod, n.edgePhase = n.clk.Period, n.clk.Phase
	}
	n.nextEdge = now + n.clk.Period
	n.Step(now, n.word, n.slot)
}

// Quiet reports that the NI's current flit cycle has nothing left to
// receive or drive after its flit edge: the incoming flit was empty, on
// flit links with no reliability shell. Step at the cycle's other edges
// then does nothing.
func (n *NI) Quiet() bool { return n.quiet }

// Step is Update for a caller that counts the clock's edges itself: w is
// the word index of the edge at now within its flit cycle and slot the
// TDM slot of that cycle.
func (n *NI) Step(now clock.Time, w, slot int) {
	if w != 0 && n.quiet {
		return
	}
	p := &phit.IdlePhit
	switch {
	case n.inFl != nil:
		p = n.inFl.Word(now, w)
	case n.in != nil:
		p = n.in.Ref()
	}
	if p.Valid || n.rel != nil { // an idle word costs its valid bit
		n.receive(now, p)
	}
	if w == 0 {
		n.buildFlit(now, slot)
		n.quiet = n.outFl != nil && n.rel == nil && n.inFl != nil && n.inFl.Quiet(now)
	}
	switch {
	case n.outFl != nil:
		if w == 0 {
			f := (*phit.Flit)(&n.flitBuf)
			n.outFl.Drive(now, f, !f.Empty())
		}
	case n.out != nil:
		fault.DrivePhit(n.out, &n.flitBuf[w])
	case n.flitBuf[w].Valid:
		fault.Report(n.rep, fault.Violation{
			Kind: fault.RouteError, Component: "ni " + n.name, Time: now, Slot: fault.NoSlot,
			Detail: "valid phit but no output wire, phit dropped",
		})
	}
}

// StepFlit advances the NI by one flit cycle in wrapper (asynchronous)
// mode: the in token's phits are received, the next slot's flit is built
// and written to out. The slot counter advances one slot per call — the
// iteration count, not wall-clock time, indexes the TDM table, which is
// how the adapted slot allocation of paper Section VI stays valid under
// plesiochronous clocks. A wrapped NI must not also be registered with the
// engine as a component.
func (n *NI) StepFlit(now clock.Time, in, out *phit.Flit) {
	n.wrapped = true
	for i := range in {
		n.receive(now, &in[i])
	}
	slot := int(n.flitIndex % int64(n.table.Size()))
	n.buildFlit(now, slot)
	n.flitIndex++
	*out = n.flitBuf
}

// receive dispatches one arriving phit. In baseline mode it goes straight
// to the protocol engine; in reliable mode the reliability endpoint first
// reassembles, CRC-verifies and sequence-filters whole flits, and only the
// phits of clean in-order flits reach the protocol engine — exactly the
// stream the baseline would have seen on a fault-free network.
func (n *NI) receive(now clock.Time, p *phit.Phit) {
	if n.rel == nil {
		if p.Valid {
			n.receivePhit(now, *p)
		}
		return
	}
	f, ok := n.rel.Accept(now, *p)
	if !ok {
		return
	}
	for _, q := range f {
		n.receivePhit(now, q)
	}
}

// receivePhit processes one arriving phit. With a reporter set, every
// envelope break degrades gracefully — the offending phit (or the rest of
// its packet) is dropped and a Violation recorded — instead of panicking.
func (n *NI) receivePhit(now clock.Time, p phit.Phit) {
	if !p.Valid {
		return
	}
	if !n.inPacket {
		if p.Kind != phit.Header && p.Kind != phit.CreditOnly {
			fault.Report(n.rep, fault.Violation{
				Kind: fault.ProtocolError, Component: "ni " + n.name, Time: now, Slot: fault.NoSlot,
				Detail: fmt.Sprintf("expected header, got %v (conn %d), phit dropped", p.Kind, p.Meta.Conn),
			})
			return
		}
		qid := n.layout.QID(p.Data)
		ic := n.inByQID(qid)
		if ic == nil {
			fault.Report(n.rep, fault.Violation{
				Kind: fault.UnknownQueue, Component: "ni " + n.name, Time: now, Slot: fault.NoSlot,
				Detail: fmt.Sprintf("header for unknown queue %d (conn %d), packet dropped", qid, p.Meta.Conn),
			})
			// Swallow the rest of the packet: its payload belongs to no
			// receive queue we know.
			n.inPacket = true
			n.dropPacket = true
			n.curIn = nil
			if p.EoP {
				n.inPacket = false
				n.dropPacket = false
			}
			return
		}
		n.curIn = ic
		n.dropPacket = false
		if cr := n.layout.Credits(p.Data); cr > 0 {
			target := ic.cfg.CreditFor
			if target == phit.None {
				fault.Report(n.rep, fault.Violation{
					Kind: fault.CreditError, Component: "ni " + n.name, Time: now, Slot: fault.NoSlot,
					Detail: fmt.Sprintf("%d credits arrived on connection %d with no credit target, credits discarded",
						cr, ic.cfg.ID),
				})
			} else {
				oc := ic.creditFor
				if oc == nil {
					oc = n.mustOut(target) // not registered: panics
				}
				// Credits travel in flit units (one credit = FlitWords
				// words of freed buffer), tripling the return bandwidth
				// of the narrow header field.
				oc.credits += cr * phit.FlitWords
				if oc.credits > oc.cfg.InitialCredits {
					fault.Report(n.rep, fault.Violation{
						Kind: fault.CreditError, Component: "ni " + n.name, Time: now, Slot: fault.NoSlot,
						Detail: fmt.Sprintf("connection %d credits %d exceed capacity %d — duplicate credit return, clamped",
							target, oc.credits, oc.cfg.InitialCredits),
					})
					oc.credits = oc.cfg.InitialCredits
				}
				if n.tr != nil {
					n.tr.Emit(trace.Event{Time: now, Kind: trace.Credit, Conn: target,
						Arg: int64(cr * phit.FlitWords), Slot: trace.NoSlot})
				}
			}
		}
		n.inPacket = true
	} else if n.dropPacket {
		// Discarding the remainder of a packet with an unusable header.
	} else {
		switch p.Kind {
		case phit.Payload:
			ic := n.curIn
			ic.rx.Record(now, p.Meta.Injected)
			if n.tr != nil {
				n.tr.Emit(trace.Event{Time: now, Ref: p.Meta.Injected, Kind: trace.Eject,
					Conn: ic.cfg.ID, Seq: p.Meta.Seq, Slot: trace.NoSlot})
			}
			ic.owed++
		case phit.Padding:
			// Fills the flit after the last payload word; carries nothing.
		default:
			fault.Report(n.rep, fault.Violation{
				Kind: fault.ProtocolError, Component: "ni " + n.name, Time: now, Slot: fault.NoSlot,
				Detail: fmt.Sprintf("%v phit inside packet (conn %d), phit dropped", p.Kind, p.Meta.Conn),
			})
		}
	}
	if p.EoP {
		n.inPacket = false
		n.dropPacket = false
	}
}

// slotEntry returns the cache entry of a table slot (in 0..Size-1),
// resolved for the slot's current owner: its connection state and the
// header for packets opened in that slot. An owner that is not a
// registered out-connection panics, on every use.
func (n *NI) slotEntry(slot int) *slotEntry {
	e := &n.slotOf[slot]
	owner := n.table.Slots[slot]
	if e.owner != owner || (e.oc == nil && owner != phit.None) {
		e.owner, e.oc = owner, nil
		if owner != phit.None {
			oc := n.mustOut(owner)
			e.hdr = oc.cfg.Headers[slot]
			e.oc = oc
		}
	}
	return e
}

// buildFlit decides the content of the flit injected in this slot (in
// 0..Size-1) and stores it in flitBuf.
func (n *NI) buildFlit(now clock.Time, slot int) {
	for i := range n.flitBuf {
		n.flitBuf[i] = phit.IdlePhit
	}
	entry := n.slotEntry(slot)
	owner := entry.owner
	if owner == phit.None {
		if n.openConn != phit.None {
			fault.Report(n.rep, fault.Violation{
				Kind: fault.PacketState, Component: "ni " + n.name, Time: now, Slot: slot,
				Detail: fmt.Sprintf("packet of connection %d left open into unowned slot, packet force-closed",
					n.openConn),
			})
			n.openConn = phit.None
		}
		return
	}
	oc := entry.oc
	if n.rel != nil {
		n.buildFlitReliable(now, slot, owner, oc, entry.hdr)
		return
	}
	continuing := n.openConn == owner
	if n.openConn != phit.None && !continuing {
		fault.Report(n.rep, fault.Violation{
			Kind: fault.PacketState, Component: "ni " + n.name, Time: now, Slot: slot,
			Detail: fmt.Sprintf("packet of connection %d open entering slot owned by %d, packet force-closed",
				n.openConn, owner),
		})
		n.openConn = phit.None
	}

	maxPayload := phit.FlitWords - 1
	if continuing {
		maxPayload = phit.FlitWords
	}
	avail := 0
	for avail < maxPayload && avail < oc.credits && oc.queue.ValidAt(now, avail) {
		avail++
	}
	if n.tr != nil && oc.queue.Valid(now) && oc.credits == 0 {
		n.tr.Emit(trace.Event{Time: now, Kind: trace.Blocked, Conn: owner, Slot: int32(slot)})
	}

	// Credits owed on the paired reverse connection (only headers carry
	// them), in flit units; a sub-flit remainder simply waits for the
	// next header, costing at most FlitWords-1 words of effective
	// buffer (the capacity sizing accounts for it).
	owed := 0
	var pairedIn *inConn
	if oc.cfg.PairedIn != phit.None {
		if pairedIn = oc.pairedIn; pairedIn == nil {
			pairedIn = n.mustIn(oc.cfg.PairedIn) // not registered: panics
		}
		owed = pairedIn.owed / phit.FlitWords
		if owed > n.layout.MaxCredits() {
			owed = n.layout.MaxCredits()
		}
	}

	word := 0
	if !continuing {
		if avail == 0 && owed == 0 {
			return // nothing to send: idle slot
		}
		hdr, err := n.layout.WithCredits(entry.hdr, owed)
		if err != nil {
			panic(fmt.Sprintf("ni %s: %v", n.name, err))
		}
		if pairedIn != nil {
			pairedIn.owed -= owed * phit.FlitWords
		}
		kind := phit.Header
		if avail == 0 {
			kind = phit.CreditOnly
		}
		n.flitBuf[0] = phit.Phit{Valid: true, Kind: kind, Data: hdr, Meta: phit.Meta{Conn: owner}}
		word = 1
	} else if avail == 0 {
		fault.Report(n.rep, fault.Violation{
			Kind: fault.PacketState, Component: "ni " + n.name, Time: now, Slot: slot,
			Detail: fmt.Sprintf("connection %d packet kept open with nothing to send, padded and closed", owner),
		})
		// Fall through with no payload: the flit fills with padding and
		// the keep-open test below closes the packet with an EoP.
	}

	sent := 0
	for ; word < phit.FlitWords && sent < avail; word++ {
		meta := oc.queue.Pop(now)
		meta.Sent = now
		n.flitBuf[word] = phit.Phit{Valid: true, Kind: phit.Payload, Data: phit.Word(meta.Seq), Meta: meta}
		if n.tr != nil {
			n.tr.Emit(trace.Event{Time: now, Ref: meta.Injected, Kind: trace.Send,
				Conn: owner, Seq: meta.Seq, Slot: int32(slot)})
		}
		sent++
	}
	oc.credits -= sent
	for ; word < phit.FlitWords; word++ {
		n.flitBuf[word] = phit.Phit{Valid: true, Kind: phit.Padding, Meta: phit.Meta{Conn: owner}}
	}
	if n.tr != nil && n.flitBuf[0].Valid {
		n.tr.Emit(trace.Event{Time: now, Kind: trace.SlotStart, Conn: owner, Slot: int32(slot), Arg: int64(sent)})
	}

	// Keep the packet open only if this connection owns the next slot
	// *on the same path* (a continuation flit follows the route held by
	// the routers' HPUs, so it must occupy the slots reserved for that
	// route) and can certainly send at least one payload word in it.
	nextSlot := slot + 1
	if nextSlot == len(n.table.Slots) {
		nextSlot = 0
	}
	keepOpen := n.table.Slots[nextSlot] == owner && oc.credits > 0 && oc.queue.ValidAt(now, 0) &&
		entry.hdr == n.slotEntry(nextSlot).hdr
	if keepOpen {
		n.openConn = owner
	} else {
		n.openConn = phit.None
		n.flitBuf[phit.FlitWords-1].EoP = true
	}
}

// buildFlitReliable is the reliable-mode flit builder. It differs from the
// baseline in three deliberate ways: header elision is disabled (every
// flit is self-contained — own header, CRC and EoP — so a lost flit never
// poisons its neighbour and go-back-N can rebuild any flit from its window
// entry alone); the header's credit field stays zero (cumulative acks on
// the sideband replace the lossy incremental credit returns); and due
// retransmissions pre-empt fresh payload in the connection's own reserved
// slots, so recovery consumes no other connection's bandwidth.
func (n *NI) buildFlitReliable(now clock.Time, slot int, owner phit.ConnID, oc *outConn, hdr phit.Word) {
	if n.rel.Quarantined(owner) {
		return // quarantined: the reserved slots fall idle
	}
	if f, words, ok := n.rel.Resend(now, owner, hdr); ok {
		copy(n.flitBuf[:], f[:])
		if n.tr != nil {
			n.tr.Emit(trace.Event{Time: now, Kind: trace.SlotStart, Conn: owner,
				Slot: int32(slot), Arg: int64(words)})
		}
		return
	}
	if n.rel.Quarantined(owner) {
		return // Resend exhausted the retry budget just now
	}
	avail := 0
	for avail < phit.FlitWords-1 && avail < oc.credits && oc.queue.ValidAt(now, avail) {
		avail++
	}
	if n.tr != nil && oc.queue.Valid(now) && oc.credits == 0 {
		n.tr.Emit(trace.Event{Time: now, Kind: trace.Blocked, Conn: owner, Slot: int32(slot)})
	}
	if avail == 0 && !n.rel.WantAck(owner) {
		return // idle slot: nothing to send, no ack owed
	}
	kind := phit.Header
	if avail == 0 {
		kind = phit.CreditOnly
	}
	n.flitBuf[0] = phit.Phit{Valid: true, Kind: kind, Data: hdr, Meta: phit.Meta{Conn: owner}}
	word := 1
	for ; word <= avail; word++ {
		meta := oc.queue.Pop(now)
		meta.Sent = now
		n.flitBuf[word] = phit.Phit{Valid: true, Kind: phit.Payload, Data: phit.Word(meta.Seq), Meta: meta}
		if n.tr != nil {
			n.tr.Emit(trace.Event{Time: now, Ref: meta.Injected, Kind: trace.Send,
				Conn: owner, Seq: meta.Seq, Slot: int32(slot)})
		}
	}
	oc.credits -= avail
	for ; word < phit.FlitWords; word++ {
		n.flitBuf[word] = phit.Phit{Valid: true, Kind: phit.Padding, Meta: phit.Meta{Conn: owner}}
	}
	n.flitBuf[phit.FlitWords-1].EoP = true
	if n.tr != nil {
		n.tr.Emit(trace.Event{Time: now, Kind: trace.SlotStart, Conn: owner,
			Slot: int32(slot), Arg: int64(avail)})
	}
	n.rel.FinishTx(now, owner, (*phit.Flit)(&n.flitBuf), avail)
}
