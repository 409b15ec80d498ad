package aethereal

import (
	"fmt"
	"math/bits"

	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/sim"
)

// DefaultBufferWords is the default per-input buffer depth of the BE
// router.
const DefaultBufferWords = 8

// maxArity is the widest router the per-output request masks cover.
const maxArity = 32

// A Router is the best-effort wormhole router component.
type Router struct {
	name   string
	clk    *clock.Clock
	layout phit.HeaderLayout
	bufCap int

	in        []*sim.Wire[phit.Phit]
	out       []*sim.Wire[phit.Phit]
	creditIn  []*sim.Wire[int] // per output port, freed credits from downstream
	creditOut []*sim.Wire[int] // per input port, credits we free toward upstream

	inBuf    [][]phit.Phit
	buffered int   // words held in all input buffers together
	curOut   []int // output port of the packet currently crossing input i
	routed   []bool
	locked   []int    // input currently owning output o, or -1
	rrPtr    []int    // round-robin pointer per output
	req      []uint32 // per output, the inputs whose head requests it this cycle

	outCredit []int // credits toward each downstream input buffer

	sampledIn []phit.Phit // latched only when valid:
	arrived   uint32      // the inputs whose entry is this cycle's word
	woken     bool        // a word or a credit came in this cycle
	freed     []int       // per input, words switched out this cycle

	// The outputs (credit returns) whose last drive was a valid word (a
	// non-zero count) and is still to be retracted: see "Change-only drives".
	outBusy, creditBusy uint32

	forwarded int64
	stalls    int64 // cycles an output wanted to send but had no credit

	// The counters at the last replay boundary and their per-epoch deltas.
	rm struct{ forwarded, stalls, dForwarded, dStalls int64 }
}

// NewRouter builds a BE router with the given arity and input buffer
// depth (0 selects DefaultBufferWords). Downstream buffer depths are set
// per output with SetOutCredits once the topology is wired.
func NewRouter(name string, arity int, layout phit.HeaderLayout, clk *clock.Clock, bufWords int) *Router {
	if arity < 2 {
		panic(fmt.Sprintf("aethereal %s: arity %d below minimum 2", name, arity))
	}
	if arity > maxArity {
		panic(fmt.Sprintf("aethereal %s: arity %d above the %d a request mask holds", name, arity, maxArity))
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
	r := &Router{
		name:      name,
		clk:       clk,
		layout:    layout,
		bufCap:    bufWords,
		in:        make([]*sim.Wire[phit.Phit], arity),
		out:       make([]*sim.Wire[phit.Phit], arity),
		creditIn:  make([]*sim.Wire[int], arity),
		creditOut: make([]*sim.Wire[int], arity),
		inBuf:     make([][]phit.Phit, arity),
		curOut:    make([]int, arity),
		routed:    make([]bool, arity),
		locked:    make([]int, arity),
		rrPtr:     make([]int, arity),
		req:       make([]uint32, arity),
		outCredit: make([]int, arity),
		sampledIn: make([]phit.Phit, arity),
		freed:     make([]int, arity),
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
func (r *Router) ConnectIn(i int, data *sim.Wire[phit.Phit], credit *sim.Wire[int]) {
	r.in[i] = data
	r.creditOut[i] = credit
}

// ConnectOut wires output port i: data leaving and freed credits coming
// back; downstreamBuf is the downstream input buffer depth (the initial
// credit count).
func (r *Router) ConnectOut(i int, data *sim.Wire[phit.Phit], credit *sim.Wire[int], downstreamBuf int) {
	r.out[i] = data
	r.creditIn[i] = credit
	r.outCredit[i] = downstreamBuf
}

// Buffered returns the number of words held in all input buffers.
func (r *Router) Buffered() int { return r.buffered }

// Forwarded returns the number of words switched.
func (r *Router) Forwarded() int64 { return r.forwarded }

// Stalls returns the number of output-cycles lost to credit exhaustion.
func (r *Router) Stalls() int64 { return r.stalls }

// Name implements sim.Component.
func (r *Router) Name() string { return r.name }

// Clock implements sim.Component.
func (r *Router) Clock() *clock.Clock { return r.clk }

// sample reads this cycle's inputs at the start of Update. Only a valid
// word is copied; credits freed downstream are banked at once.
func (r *Router) sample() {
	for i, w := range r.in {
		if w != nil && w.Read().Valid {
			r.sampledIn[i] = w.Read()
			r.arrived |= 1 << i
			r.woken = true
		}
	}
	for o, w := range r.creditIn {
		if w != nil && w.Read() != 0 {
			r.outCredit[o] += w.Read()
			r.woken = true
		}
	}
}

// headPort returns the output port requested by input i's head word,
// computing and latching it when the head is a header. The buffer must not
// be empty.
func (r *Router) headPort(i int) int {
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

// request posts input i's head word to the output it asks for. A port the
// router does not have is requested from nobody: such a packet never leaves.
func (r *Router) request(i int) {
	if p := r.headPort(i); p < len(r.req) {
		r.req[p] |= 1 << i
	}
}

// idle retracts output o's last valid word, once.
func (r *Router) idle(o int) {
	if r.outBusy&(1<<o) != 0 {
		r.outBusy &^= 1 << o
		r.out[o].Drive(phit.IdlePhit)
	}
}

// Update implements sim.Component.
func (r *Router) Update(now clock.Time) {
	r.sample()
	if r.buffered == 0 && !r.woken && r.outBusy|r.creditBusy == 0 {
		return // nothing held, nothing came, nothing to retract
	}
	r.woken = false
	freed := r.freed
	clear(freed)

	// Every buffered head posts its request; an output reads one mask.
	clear(r.req)
	for i := range r.inBuf {
		if len(r.inBuf[i]) > 0 {
			r.request(i)
		}
	}

	// Arbitrate each output.
	for o, out := range r.out {
		if out == nil {
			continue
		}
		src := r.locked[o]
		if src < 0 {
			// Round-robin over inputs whose head requests o (mid-packet on
			// another output it requests that one): the first above the
			// pointer, else the lowest.
			m := r.req[o]
			if m == 0 {
				r.idle(o)
				continue
			}
			if above := m >> (r.rrPtr[o] + 1); above != 0 {
				src = r.rrPtr[o] + 1 + bits.TrailingZeros32(above)
			} else {
				src = bits.TrailingZeros32(m)
			}
			r.rrPtr[o] = src
		}
		if len(r.inBuf[src]) == 0 {
			r.idle(o)
			continue
		}
		if r.outCredit[o] == 0 {
			r.stalls++
			r.idle(o)
			r.locked[o] = src // hold the output while stalled mid-packet
			continue
		}
		w := r.inBuf[src][0]
		// Pop by moving the few words behind it up, keeping the capacity.
		r.inBuf[src] = r.inBuf[src][:copy(r.inBuf[src], r.inBuf[src][1:])]
		r.buffered--
		freed[src]++
		r.outCredit[o]--
		r.forwarded++
		if w.EoP {
			r.locked[o] = -1
			r.routed[src] = false
			// The pop exposed the next packet's header: an output still to
			// come this cycle may take it (doc.go, "Known simplification").
			if len(r.inBuf[src]) > 0 {
				r.request(src)
			}
		} else {
			r.locked[o] = src
		}
		out.Drive(w)
		r.outBusy |= 1 << o
	}

	// Accept arriving words after switching: a word needs a full cycle
	// in the buffer before it can leave.
	for m := r.arrived; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		if len(r.inBuf[i]) >= r.bufCap {
			panic(fmt.Sprintf("aethereal %s: input %d buffer overflow — link-level flow control violated", r.name, i))
		}
		r.inBuf[i] = append(r.inBuf[i], r.sampledIn[i])
		r.buffered++
	}
	r.arrived = 0
	for i, c := range r.creditOut {
		if c != nil && (freed[i] != 0 || r.creditBusy&(1<<i) != 0) {
			c.Drive(freed[i])
			r.creditBusy &^= 1 << i
			if freed[i] != 0 {
				r.creditBusy |= 1 << i
			}
		}
	}
}
