package router

import (
	"fmt"

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
func (c *Core) StepFlitDirect(in, out []*phit.Flit) {
	if len(in) != c.arity || len(out) != c.arity {
		panic(fmt.Sprintf("router %s: %d input and %d output tokens for arity %d", c.name, len(in), len(out), c.arity))
	}
	for _, f := range out {
		*f = phit.Flit{}
	}
	for w := 0; w < phit.FlitWords; w++ {
		for i, f := range in {
			p := f[w]
			port, ok := 0, false
			if p.Valid {
				port, ok = c.hop(i, &p)
			}
			start := c.flitStart(i, ok)
			if ok && c.portOK(i, port, &p) {
				c.put(&out[port][w], &p, port, start)
			}
		}
	}
}
