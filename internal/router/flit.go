package router

import (
	"fmt"
	"math/bits"

	"repro/internal/clock"
	"repro/internal/phit"
)

// StepFlitDirect advances the router by one whole flit cycle in wrapper
// (asynchronous) mode. The wrapper feeds the datapath directly, bypassing
// the input registers — the paper's Section VI notes the fire signal
// reaches the Output Port Interfaces with a 2-cycle delay "corresponding
// to the data path in the router without input registers" — so the output
// flits belong to the same dataflow iteration as the input flits. The
// physical 2-cycle latency is modelled by the wrapper's channel delay, not
// here.
//
// in[i] is the token consumed from input port i this iteration (empty
// tokens are all-idle flits); out[i] receives the token produced on output
// port i, whatever it held before. The tokens are read and written in
// place, so the wrapper can pass its channels' own; in is never written.
// Each word goes through the same HPU, switch and envelope checks as a
// phit of the clocked pipeline (hop, flitStart, portOK, put), word by word
// and input by input, so the wrapped router reports and traces exactly
// what the clocked one does for the same phit stream. With the adapted
// slot allocation (one extra shift per initial channel token) no two
// flits may collide, so a contention is an envelope violation here too.
// An input whose token is empty and which is not inside a flit does
// nothing in any of those steps, and is skipped.
func (c *Core) StepFlitDirect(in, out []*phit.Flit) {
	if len(in) != c.arity || len(out) != c.arity {
		panic(fmt.Sprintf("router %s: %d input and %d output tokens for arity %d", c.name, len(in), len(out), c.arity))
	}
	for _, f := range out {
		*f = phit.Flit{}
	}
	var skip uint64
	for i, f := range in {
		if i < 64 && c.flitLeft[i] == 0 && f.Empty() {
			skip |= 1 << i
		}
	}
	c.stepFlit(in, out, 0, skip)
}

// stepFlit is StepFlitDirect on output flits the caller has emptied, minus
// the inputs in skip, which the caller found empty and not inside a flit.
// It returns the outputs it switched a word to. With a non-zero period it
// is the step of a router on synchronous flit links (FlitComponent),
// called at the flit edge c.now: it stamps every violation and trace
// event with the instant at which the word pipeline meets it, the HPU of
// word w one period before word w reaches the switch at c.now + w periods.
// Without one every stamp is c.now, the wrapper's firing instant.
func (c *Core) stepFlit(in, out []*phit.Flit, period clock.Duration, skip uint64) (wrote uint64) {
	edge := c.now
	live := ^skip
	if len(in) < 64 {
		live &= 1<<len(in) - 1
	}
	for w := 0; w < phit.FlitWords; w++ {
		at := edge + clock.Time(w)*period
		for m := live; m != 0; m &= m - 1 {
			wrote |= c.stepWord(in, out, bits.TrailingZeros64(m), w, at, period)
		}
		for i := 64; i < len(in); i++ { // never skipped
			c.stepWord(in, out, i, w, at, period)
		}
	}
	c.now = edge
	return wrote
}

// stepWord takes word w of input i through the HPU and the switch, the
// switch at instant at, and returns the output it wrote as a mask (zero for
// a port past 63).
func (c *Core) stepWord(in, out []*phit.Flit, i, w int, at clock.Time, period clock.Duration) uint64 {
	var p phit.Phit
	port, ok := 0, false
	if in[i][w].Valid {
		p = in[i][w]
		c.now = at - period
		port, ok = c.hop(i, &p)
	}
	c.now = at
	start := c.flitStart(i, ok)
	if ok && c.portOK(i, port, &p) {
		c.put(&out[port][w], &p, port, start)
		return 1 << port
	}
	return 0
}
