package router

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/trace"
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
// place, so the wrapper can pass its channels' own. Contention is an
// envelope violation: with the adapted slot allocation (one extra shift
// per initial channel token) no two flits may collide. In strict mode (nil
// reporter) it panics; in collecting mode the colliding phit is dropped
// and a fault.Violation recorded.
func (c *Core) StepFlitDirect(in, out []*phit.Flit) {
	if len(in) != c.arity || len(out) != c.arity {
		panic(fmt.Sprintf("router %s: %d input and %d output tokens for arity %d", c.name, len(in), len(out), c.arity))
	}
	for _, f := range out {
		*f = phit.Flit{}
	}
	for w := 0; w < phit.FlitWords; w++ {
		for i := 0; i < c.arity; i++ {
			p := in[i][w]
			st := &c.hpu[i]
			if !p.Valid {
				continue
			}
			if !st.inPacket {
				if p.Kind != phit.Header && p.Kind != phit.CreditOnly {
					fault.Report(c.rep, fault.Violation{
						Kind: fault.ProtocolError, Component: "router " + c.name, Time: c.now, Slot: fault.NoSlot,
						Detail: fmt.Sprintf("input %d expected header, got %v (conn %d), phit dropped",
							i, p.Kind, p.Meta.Conn),
					})
					continue
				}
				port, shifted := c.layout.NextPort(p.Data)
				p.Data = shifted
				st.outPort = port
				st.inPacket = true
			}
			if p.EoP {
				st.inPacket = false
			}
			if st.outPort < 0 || st.outPort >= c.arity {
				fault.Report(c.rep, fault.Violation{
					Kind: fault.RouteError, Component: "router " + c.name, Time: c.now, Slot: fault.NoSlot,
					Detail: fmt.Sprintf("input %d routed to non-existent port %d, phit dropped", i, st.outPort),
				})
				continue
			}
			if out[st.outPort][w].Valid {
				fault.Report(c.rep, fault.Violation{
					Kind: fault.SlotContention, Component: "router " + c.name, Time: c.now, Slot: fault.NoSlot,
					Detail: fmt.Sprintf("token contention on output %d word %d between connections %d and %d",
						st.outPort, w, out[st.outPort][w].Meta.Conn, p.Meta.Conn),
				})
				continue
			}
			out[st.outPort][w] = p
			if c.tr != nil {
				// One event per flit token: a flit's first word is never
				// idle, so emit only when every earlier word was.
				start := true
				for pw := 0; pw < w; pw++ {
					if in[i][pw].Valid {
						start = false
						break
					}
				}
				if start {
					c.tr.Emit(trace.Event{Time: c.now, Kind: trace.RouterForward, Conn: p.Meta.Conn,
						Seq: p.Meta.Seq, Arg: int64(st.outPort), Slot: trace.NoSlot})
				}
			}
		}
	}
}
