package aethereal

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/sim"
)

// DefaultBufferWords is the default per-input buffer depth of the BE
// router.
const DefaultBufferWords = 8

// A Router is the best-effort wormhole router component.
type Router struct {
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

// NewRouter builds a BE router with the given arity and input buffer
// depth (0 selects DefaultBufferWords). Downstream buffer depths are set
// per output with SetOutCredits once the topology is wired.
func NewRouter(name string, arity int, layout phit.HeaderLayout, clk *clock.Clock, bufWords int) *Router {
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
	r := &Router{
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

// BufferWords returns the per-input buffer depth.
func (r *Router) BufferWords() int { return r.bufCap }

// Forwarded returns the number of words switched.
func (r *Router) Forwarded() int64 { return r.forwarded }

// Stalls returns the number of output-cycles lost to credit exhaustion.
func (r *Router) Stalls() int64 { return r.stalls }

// Name implements sim.Component.
func (r *Router) Name() string { return r.name }

// Clock implements sim.Component.
func (r *Router) Clock() *clock.Clock { return r.clk }

// Sample implements sim.Sampler.
func (r *Router) Sample(now clock.Time) {
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
func (r *Router) headPort(i int) int {
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
func (r *Router) Update(now clock.Time) {
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
