package aethereal

import (
	"fmt"
	"sort"

	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// oldRouter is the router as it stood before the request masks and the
// change-only drives, verbatim: the differential tests' oracle.
type oldRouter struct {
	name   string
	clk    *clock.Clock
	layout phit.HeaderLayout
	arity  int
	bufCap int

	in        []*sim.Wire[phit.Phit]
	out       []*sim.Wire[phit.Phit]
	creditIn  []*sim.Wire[int] // per output port, freed credits from downstream
	creditOut []*sim.Wire[int] // per input port, credits we free toward upstream

	inBuf  [][]phit.Phit
	curOut []int // output port of the packet currently crossing input i
	routed []bool
	locked []int // input currently owning output o, or -1
	rrPtr  []int // round-robin pointer per output

	outCredit []int // credits toward each downstream input buffer

	sampledIn     []phit.Phit
	sampledCredit []int
	freed         []int // per input, words switched out this cycle

	forwarded int64
	stalls    int64 // cycles an output wanted to send but had no credit
}

// newOldRouter builds a BE router with the given arity and input buffer
// depth (0 selects DefaultBufferWords). Downstream buffer depths are set
// per output with SetOutCredits once the topology is wired.
func newOldRouter(name string, arity int, layout phit.HeaderLayout, clk *clock.Clock, bufWords int) *oldRouter {
	if arity < 2 {
		panic(fmt.Sprintf("aethereal %s: arity %d below minimum 2", name, arity))
	}
	if err := layout.Validate(); err != nil {
		panic(fmt.Sprintf("aethereal %s: %v", name, err))
	}
	if bufWords == 0 {
		bufWords = DefaultBufferWords
	}
	if bufWords < 2 {
		panic(fmt.Sprintf("aethereal %s: buffer of %d words cannot cover the credit loop", name, bufWords))
	}
	r := &oldRouter{
		name:          name,
		clk:           clk,
		layout:        layout,
		arity:         arity,
		bufCap:        bufWords,
		in:            make([]*sim.Wire[phit.Phit], arity),
		out:           make([]*sim.Wire[phit.Phit], arity),
		creditIn:      make([]*sim.Wire[int], arity),
		creditOut:     make([]*sim.Wire[int], arity),
		inBuf:         make([][]phit.Phit, arity),
		curOut:        make([]int, arity),
		routed:        make([]bool, arity),
		locked:        make([]int, arity),
		rrPtr:         make([]int, arity),
		outCredit:     make([]int, arity),
		sampledIn:     make([]phit.Phit, arity),
		sampledCredit: make([]int, arity),
		freed:         make([]int, arity),
	}
	for i := range r.locked {
		r.locked[i] = -1
		// Link-level flow control keeps a buffer within bufWords, so it
		// never regrows.
		r.inBuf[i] = make([]phit.Phit, 0, bufWords)
	}
	return r
}

// ConnectIn wires input port i: data arriving and the credit return path.
func (r *oldRouter) ConnectIn(i int, data *sim.Wire[phit.Phit], credit *sim.Wire[int]) {
	r.in[i] = data
	r.creditOut[i] = credit
}

// ConnectOut wires output port i: data leaving and freed credits coming
// back; downstreamBuf is the downstream input buffer depth (the initial
// credit count).
func (r *oldRouter) ConnectOut(i int, data *sim.Wire[phit.Phit], credit *sim.Wire[int], downstreamBuf int) {
	r.out[i] = data
	r.creditIn[i] = credit
	r.outCredit[i] = downstreamBuf
}

// Forwarded returns the number of words switched.
func (r *oldRouter) Forwarded() int64 { return r.forwarded }

// Stalls returns the number of output-cycles lost to credit exhaustion.
func (r *oldRouter) Stalls() int64 { return r.stalls }

// Name implements sim.Component.
func (r *oldRouter) Name() string { return r.name }

// Clock implements sim.Component.
func (r *oldRouter) Clock() *clock.Clock { return r.clk }

// sample reads this cycle's inputs at the start of Update.
func (r *oldRouter) sample() {
	for i := 0; i < r.arity; i++ {
		if r.in[i] != nil {
			r.sampledIn[i] = r.in[i].Read()
		} else {
			r.sampledIn[i] = phit.IdlePhit
		}
		if r.creditIn[i] != nil {
			r.sampledCredit[i] = r.creditIn[i].Read()
		} else {
			r.sampledCredit[i] = 0
		}
	}
}

// headPort returns the output port requested by input i's head word,
// computing and latching it when the head is a header.
func (r *oldRouter) headPort(i int) int {
	if len(r.inBuf[i]) == 0 {
		return -1
	}
	if !r.routed[i] {
		h := r.inBuf[i][0]
		if h.Kind != phit.Header && h.Kind != phit.CreditOnly {
			panic(fmt.Sprintf("aethereal %s: input %d head is %v outside a packet (conn %d)",
				r.name, i, h.Kind, h.Meta.Conn))
		}
		port, shifted := r.layout.NextPort(h.Data)
		h.Data = shifted
		r.inBuf[i][0] = h
		r.curOut[i] = port
		r.routed[i] = true
	}
	return r.curOut[i]
}

// Update implements sim.Component.
func (r *oldRouter) Update(now clock.Time) {
	r.sample()
	// Credits freed downstream become usable next cycle.
	for o := 0; o < r.arity; o++ {
		r.outCredit[o] += r.sampledCredit[o]
	}
	freed := r.freed
	clear(freed)

	// Arbitrate each output.
	for o := 0; o < r.arity; o++ {
		if r.out[o] == nil {
			continue
		}
		src := r.locked[o]
		if src < 0 {
			// Round-robin over inputs whose head requests o.
			for k := 1; k <= r.arity; k++ {
				i := (r.rrPtr[o] + k) % r.arity
				if len(r.inBuf[i]) > 0 && r.headPort(i) == o {
					// An input can only win a new output if it
					// is not mid-packet on another one.
					src = i
					r.rrPtr[o] = i
					break
				}
			}
		}
		if src < 0 || len(r.inBuf[src]) == 0 {
			r.out[o].Drive(phit.IdlePhit)
			continue
		}
		if r.outCredit[o] == 0 {
			r.stalls++
			r.out[o].Drive(phit.IdlePhit)
			r.locked[o] = src // hold the output while stalled mid-packet
			continue
		}
		w := r.inBuf[src][0]
		// Pop by moving the few words behind it up, keeping the capacity.
		r.inBuf[src] = r.inBuf[src][:copy(r.inBuf[src], r.inBuf[src][1:])]
		freed[src]++
		r.outCredit[o]--
		r.forwarded++
		if w.EoP {
			r.locked[o] = -1
			r.routed[src] = false
		} else {
			r.locked[o] = src
		}
		r.out[o].Drive(w)
	}

	// Accept arriving words after switching: a word needs a full cycle
	// in the buffer before it can leave.
	for i := 0; i < r.arity; i++ {
		if !r.sampledIn[i].Valid {
			continue
		}
		if len(r.inBuf[i]) >= r.bufCap {
			panic(fmt.Sprintf("aethereal %s: input %d buffer overflow — link-level flow control violated", r.name, i))
		}
		r.inBuf[i] = append(r.inBuf[i], r.sampledIn[i])
	}
	for i := 0; i < r.arity; i++ {
		if r.creditOut[i] != nil {
			r.creditOut[i].Drive(freed[i])
		}
	}
}

// oldBeIn is the NI's in-connection as it stood with oldNI, when each
// backend kept its own statistics.
type oldBeIn struct {
	cfg       InConnConfig
	delivered int64
	latency   stats.Histogram
	firstNs   float64
	lastNs    float64
}

// oldNI is the NI as it stood before the id-ordered slice and the
// change-only drives, verbatim (accessors trimmed to what the tests read).
// An NI is the best-effort network interface: no TDM, no end-to-end
// credit accounting (receive queues are drained at line rate by the
// modelled IPs, a simplification that favours the BE baseline — see
// DESIGN.md). Packets are injected as fast as link-level credits allow,
// connections served round-robin.
type oldNI struct {
	name   string
	clk    *clock.Clock
	layout phit.HeaderLayout

	in        *sim.Wire[phit.Phit]
	out       *sim.Wire[phit.Phit]
	creditIn  *sim.Wire[int]
	creditOut *sim.Wire[int]

	outConns  map[phit.ConnID]*beOut
	order     []phit.ConnID // deterministic round-robin order
	inByQID   map[int]*oldBeIn
	inByID    map[phit.ConnID]*oldBeIn
	maxPacket int

	// Sender state.
	linkCredit int
	rr         int
	openConn   *beOut
	openWords  int

	// Receiver state.
	curIn    *oldBeIn
	inPacket bool

	sampledIn     phit.Phit
	sampledCredit int

	tr *trace.Emitter
}

// newOldNI builds a BE NI. downstreamBuf is the attached router's input
// buffer depth (initial link credits); maxPacket of 0 selects
// DefaultMaxPacketWords.
func newOldNI(name string, clk *clock.Clock, layout phit.HeaderLayout,
	in, out *sim.Wire[phit.Phit], creditIn, creditOut *sim.Wire[int],
	downstreamBuf, maxPacket int) *oldNI {
	if maxPacket == 0 {
		maxPacket = DefaultMaxPacketWords
	}
	if maxPacket < 1 {
		panic(fmt.Sprintf("aethereal %s: max packet %d", name, maxPacket))
	}
	return &oldNI{
		name: name, clk: clk, layout: layout,
		in: in, out: out, creditIn: creditIn, creditOut: creditOut,
		outConns:   make(map[phit.ConnID]*beOut),
		inByQID:    make(map[int]*oldBeIn),
		inByID:     make(map[phit.ConnID]*oldBeIn),
		maxPacket:  maxPacket,
		linkCredit: downstreamBuf,
	}
}

// AddOutConn registers a sourced connection.
func (n *oldNI) AddOutConn(cfg OutConnConfig) {
	if _, dup := n.outConns[cfg.ID]; dup {
		panic(fmt.Sprintf("aethereal %s: duplicate out connection %d", n.name, cfg.ID))
	}
	n.outConns[cfg.ID] = &beOut{
		cfg:   cfg,
		queue: sim.NewBisync[phit.Meta](fmt.Sprintf("%s.c%d.send", n.name, cfg.ID), SendCapacity, n.clk.Period),
	}
	n.order = append(n.order, cfg.ID)
	sort.Slice(n.order, func(i, j int) bool { return n.order[i] < n.order[j] })
}

// AddInConn registers a terminating connection.
func (n *oldNI) AddInConn(cfg InConnConfig) {
	if _, dup := n.inByQID[cfg.QID]; dup {
		panic(fmt.Sprintf("aethereal %s: duplicate queue id %d", n.name, cfg.QID))
	}
	ic := &oldBeIn{cfg: cfg}
	n.inByQID[cfg.QID] = ic
	n.inByID[cfg.ID] = ic
}

// Offer enqueues a payload word from the IP (blocking-write semantics).
func (n *oldNI) Offer(now clock.Time, conn phit.ConnID, meta phit.Meta) bool {
	oc := n.outConns[conn]
	if oc == nil {
		panic(fmt.Sprintf("aethereal %s: unknown out connection %d", n.name, conn))
	}
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
func (n *oldNI) SetTracer(e *trace.Emitter) { n.tr = e }

// Name implements sim.Component.
func (n *oldNI) Name() string { return n.name }

// Clock implements sim.Component.
func (n *oldNI) Clock() *clock.Clock { return n.clk }

// sample reads this cycle's inputs at the start of Update.
func (n *oldNI) sample() {
	if n.in != nil {
		n.sampledIn = n.in.Read()
	} else {
		n.sampledIn = phit.IdlePhit
	}
	if n.creditIn != nil {
		n.sampledCredit = n.creditIn.Read()
	} else {
		n.sampledCredit = 0
	}
}

// Update implements sim.Component.
func (n *oldNI) Update(now clock.Time) {
	n.sample()
	n.receive(now)
	n.linkCredit += n.sampledCredit
	n.send(now)
	// The modelled IP drains the receive path at line rate, so one
	// credit is returned per received word immediately.
	if n.creditOut != nil {
		if n.sampledIn.Valid {
			n.creditOut.Drive(1)
		} else {
			n.creditOut.Drive(0)
		}
	}
}

func (n *oldNI) receive(now clock.Time) {
	p := n.sampledIn
	if !p.Valid {
		return
	}
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
		ic.delivered++
		if n.tr != nil {
			n.tr.Emit(trace.Event{Time: now, Ref: p.Meta.Injected, Kind: trace.Eject,
				Conn: ic.cfg.ID, Seq: p.Meta.Seq, Slot: trace.NoSlot})
		}
		ic.latency.Add(float64(now-p.Meta.Injected) / float64(clock.Nanosecond))
		ic.lastNs = float64(now) / float64(clock.Nanosecond)
		if ic.delivered == 1 {
			ic.firstNs = ic.lastNs
		}
	}
	if p.EoP {
		n.inPacket = false
	}
}

func (n *oldNI) send(now clock.Time) {
	if n.out == nil {
		return
	}
	if n.linkCredit == 0 {
		n.out.Drive(phit.IdlePhit)
		return
	}
	if n.openConn == nil {
		// Pick the next connection with data, round-robin.
		for k := 0; k < len(n.order); k++ {
			id := n.order[(n.rr+k)%len(n.order)]
			oc := n.outConns[id]
			if oc.queue.Valid(now) {
				n.rr = (n.rr + k + 1) % len(n.order)
				n.openConn = oc
				n.openWords = 0
				n.linkCredit--
				n.out.Drive(phit.Phit{Valid: true, Kind: phit.Header, Data: oc.cfg.Header,
					Meta: phit.Meta{Conn: id}})
				return
			}
		}
		n.out.Drive(phit.IdlePhit)
		return
	}
	oc := n.openConn
	if !oc.queue.Valid(now) {
		// Nothing buffered mid-packet: terminate with a zero-payload
		// filler? BE wormhole cannot hold a packet open without data
		// indefinitely — close it. The EoP must ride a word; send a
		// padding word.
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

func (n *oldNI) Delivered(conn phit.ConnID) int64 { return n.mustIn(conn).delivered }

func (n *oldNI) Latency(conn phit.ConnID) *stats.Histogram { return &n.mustIn(conn).latency }

func (n *oldNI) mustIn(conn phit.ConnID) *oldBeIn {
	ic := n.inByID[conn]
	if ic == nil {
		panic(fmt.Sprintf("aethereal %s: unknown in connection %d", n.name, conn))
	}
	return ic
}
