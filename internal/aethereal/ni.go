package aethereal

import (
	"fmt"
	"slices"

	"repro/internal/clock"
	"repro/internal/ni"
	"repro/internal/phit"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DefaultMaxPacketWords caps BE packet payload length; long packets
// amortise the header but worsen head-of-line blocking.
const DefaultMaxPacketWords = 16

// SendCapacity is the IP-side FIFO depth per connection, matching the
// aelite NI default so the two networks face identical IP behaviour.
const SendCapacity = 32

// OutConnConfig configures a connection sourced at a BE NI.
type OutConnConfig struct {
	ID     phit.ConnID
	Header phit.Word // path + destination queue id, zero credits
}

// InConnConfig configures a connection terminating at a BE NI.
type InConnConfig struct {
	ID  phit.ConnID
	QID int
}

type beOut struct {
	cfg   OutConnConfig
	queue *sim.Bisync[phit.Meta]
}

type beIn struct {
	cfg InConnConfig
	rx  ni.ConnStats
}

// An NI is the best-effort network interface: no TDM, no end-to-end
// credit accounting (receive queues are drained at line rate by the
// modelled IPs, a simplification that favours the BE baseline — see
// DESIGN.md). Packets are injected as fast as link-level credits allow,
// connections served round-robin.
type NI struct {
	name   string
	clk    *clock.Clock
	layout phit.HeaderLayout

	in        *sim.Wire[phit.Phit]
	out       *sim.Wire[phit.Phit]
	creditIn  *sim.Wire[int]
	creditOut *sim.Wire[int]

	outs      []*beOut      // in id order: the deterministic round-robin order
	outIDs    []phit.ConnID // outs[i].cfg.ID, for the search
	inByQID   map[int]*beIn
	inByID    map[phit.ConnID]*beIn
	ins       []*beIn // in registration order
	maxPacket int

	// Sender state.
	linkCredit int
	rr         int
	openConn   *beOut
	openWords  int

	// Receiver state.
	curIn    *beIn
	inPacket bool

	sampledIn     phit.Phit // latched only when valid, see gotWord
	gotWord       bool
	sampledCredit int

	outBusy    bool // out's last drive was a valid word, still to be retracted
	creditHigh bool // creditOut carries a 1

	tr *trace.Emitter
}

// NewNI builds a BE NI. downstreamBuf is the attached router's input
// buffer depth (initial link credits); maxPacket of 0 selects
// DefaultMaxPacketWords.
func NewNI(name string, clk *clock.Clock, layout phit.HeaderLayout,
	in, out *sim.Wire[phit.Phit], creditIn, creditOut *sim.Wire[int],
	downstreamBuf, maxPacket int) *NI {
	if maxPacket == 0 {
		maxPacket = DefaultMaxPacketWords
	}
	if maxPacket < 1 {
		panic(fmt.Sprintf("aethereal %s: max packet %d", name, maxPacket))
	}
	return &NI{
		name: name, clk: clk, layout: layout,
		in: in, out: out, creditIn: creditIn, creditOut: creditOut,
		inByQID:    make(map[int]*beIn),
		inByID:     make(map[phit.ConnID]*beIn),
		maxPacket:  maxPacket,
		linkCredit: downstreamBuf,
	}
}

// AddOutConn registers a sourced connection.
func (n *NI) AddOutConn(cfg OutConnConfig) {
	at, dup := slices.BinarySearch(n.outIDs, cfg.ID)
	if dup {
		panic(fmt.Sprintf("aethereal %s: duplicate out connection %d", n.name, cfg.ID))
	}
	n.outIDs = slices.Insert(n.outIDs, at, cfg.ID)
	n.outs = slices.Insert(n.outs, at, &beOut{
		cfg:   cfg,
		queue: sim.NewBisync[phit.Meta](fmt.Sprintf("%s.c%d.send", n.name, cfg.ID), SendCapacity, n.clk.Period),
	})
}

// AddInConn registers a terminating connection.
func (n *NI) AddInConn(cfg InConnConfig) {
	if _, dup := n.inByQID[cfg.QID]; dup {
		panic(fmt.Sprintf("aethereal %s: duplicate queue id %d", n.name, cfg.QID))
	}
	ic := &beIn{cfg: cfg}
	n.inByQID[cfg.QID] = ic
	n.inByID[cfg.ID] = ic
	n.ins = append(n.ins, ic)
}

// Offer enqueues a payload word from the IP (blocking-write semantics).
func (n *NI) Offer(now clock.Time, conn phit.ConnID, meta phit.Meta) bool {
	at, ok := slices.BinarySearch(n.outIDs, conn)
	if !ok {
		panic(fmt.Sprintf("aethereal %s: unknown out connection %d", n.name, conn))
	}
	oc := n.outs[at]
	if !oc.queue.CanPush() {
		return false
	}
	meta.Conn = conn
	oc.queue.Push(now, meta)
	if n.tr != nil {
		n.tr.Emit(trace.Event{Time: now, Kind: trace.Inject, Conn: conn, Seq: meta.Seq, Slot: trace.NoSlot})
	}
	return true
}

// SetTracer installs the NI's lifecycle-event emitter; nil disables
// emission (the default: an untraced NI pays no per-event cost).
func (n *NI) SetTracer(e *trace.Emitter) { n.tr = e }

// Name implements sim.Component.
func (n *NI) Name() string { return n.name }

// Clock implements sim.Component.
func (n *NI) Clock() *clock.Clock { return n.clk }

// sample reads this cycle's inputs at the start of Update. Only a valid
// word is copied.
func (n *NI) sample() {
	if n.gotWord = n.in != nil && n.in.Read().Valid; n.gotWord {
		n.sampledIn = n.in.Read()
	}
	if n.creditIn != nil {
		n.sampledCredit = n.creditIn.Read()
	}
}

// Update implements sim.Component.
func (n *NI) Update(now clock.Time) {
	n.sample()
	if n.gotWord {
		n.receive(now, &n.sampledIn)
	}
	n.linkCredit += n.sampledCredit
	if n.out != nil {
		n.send(now)
	}
	// The modelled IP drains the receive path at line rate, so one
	// credit is returned per received word immediately.
	if n.creditOut != nil && n.gotWord != n.creditHigh {
		n.creditHigh = n.gotWord
		if n.gotWord {
			n.creditOut.Drive(1)
		} else {
			n.creditOut.Drive(0)
		}
	}
}

// receive takes one valid word off the link.
func (n *NI) receive(now clock.Time, p *phit.Phit) {
	if !n.inPacket {
		if p.Kind != phit.Header && p.Kind != phit.CreditOnly {
			panic(fmt.Sprintf("aethereal %s: expected header, got %v", n.name, p.Kind))
		}
		qid := n.layout.QID(p.Data)
		ic := n.inByQID[qid]
		if ic == nil {
			panic(fmt.Sprintf("aethereal %s: header for unknown queue %d", n.name, qid))
		}
		n.curIn = ic
		n.inPacket = true
	} else if p.Kind == phit.Payload {
		ic := n.curIn
		ic.rx.Record(now, p.Meta.Injected)
		if n.tr != nil {
			n.tr.Emit(trace.Event{Time: now, Ref: p.Meta.Injected, Kind: trace.Eject,
				Conn: ic.cfg.ID, Seq: p.Meta.Seq, Slot: trace.NoSlot})
		}
	}
	if p.EoP {
		n.inPacket = false
	}
}

// idle retracts the last valid word on out, once.
func (n *NI) idle() {
	if n.outBusy {
		n.outBusy = false
		n.out.Drive(phit.IdlePhit)
	}
}

// send drives at most one word onto out, which must be connected.
func (n *NI) send(now clock.Time) {
	if n.linkCredit == 0 {
		n.idle()
		return
	}
	if n.openConn == nil {
		// Pick the next connection with data, round-robin from rr on.
		for k := range n.outs {
			i := n.rr + k
			if i >= len(n.outs) {
				i -= len(n.outs)
			}
			oc := n.outs[i]
			if oc.queue.Valid(now) {
				if n.rr = i + 1; n.rr == len(n.outs) {
					n.rr = 0
				}
				n.openConn = oc
				n.openWords = 0
				n.linkCredit--
				n.outBusy = true
				n.out.Drive(phit.Phit{Valid: true, Kind: phit.Header, Data: oc.cfg.Header,
					Meta: phit.Meta{Conn: oc.cfg.ID}})
				return
			}
		}
		n.idle()
		return
	}
	n.outBusy = true
	oc := n.openConn
	if !oc.queue.Valid(now) {
		// Nothing buffered mid-packet: close the packet with a padding
		// word carrying the EoP.
		n.linkCredit--
		n.out.Drive(phit.Phit{Valid: true, Kind: phit.Padding, EoP: true, Meta: phit.Meta{Conn: oc.cfg.ID}})
		n.openConn = nil
		return
	}
	meta := oc.queue.Pop(now)
	meta.Sent = now
	n.openWords++
	n.linkCredit--
	if n.tr != nil {
		n.tr.Emit(trace.Event{Time: now, Ref: meta.Injected, Kind: trace.Send,
			Conn: oc.cfg.ID, Seq: meta.Seq, Slot: trace.NoSlot})
	}
	eop := n.openWords >= n.maxPacket || !oc.queue.Valid(now)
	n.out.Drive(phit.Phit{Valid: true, Kind: phit.Payload, EoP: eop, Data: phit.Word(meta.Seq), Meta: meta})
	if eop {
		n.openConn = nil
	}
}

// InStats returns the statistics of a connection terminating here.
func (n *NI) InStats(conn phit.ConnID) *ni.ConnStats { return &n.mustIn(conn).rx }

// ResetStats clears measurements without touching protocol state.
func (n *NI) ResetStats() {
	for _, ic := range n.ins {
		ic.rx.Reset()
	}
}

func (n *NI) mustIn(conn phit.ConnID) *beIn {
	ic := n.inByID[conn]
	if ic == nil {
		panic(fmt.Sprintf("aethereal %s: unknown in connection %d", n.name, conn))
	}
	return ic
}
