// Package wrapper implements the asynchronous wrapper of paper Section VI,
// which turns aelite routers and NIs into stallable dataflow actors so the
// network can operate plesiochronously (or heterochronously): every
// element runs on its own clock and only proceeds from one flit cycle
// (dataflow iteration) to the next once it has synchronised with all its
// neighbours.
//
// Structure, following the paper's Figure 4:
//
//   - every port is managed by a Port Interface: Input PIs (IPI) hold a
//     FIFO and a counter of available words, Output PIs (OPI) a counter of
//     unreserved space. Here both are modelled by the token channels
//     between wrappers: a token is one flit; an IPI "fires" when a token
//     is available, an OPI when space for one token is free. A fire
//     moves no token by value: the element reads the popped tokens and
//     writes the pushed ones in the channels' own rings.
//   - the Port Interface Controller (PIC) fires once all PIs fire; the
//     fire pops one token from every input, runs the wrapped element for
//     one flit cycle, and pushes one token on every output. Output space
//     is reserved at fire time (the OPI counter decrements "as soon as
//     input data is forwarded to the router"), which here is the push
//     itself; the 2-cycle registered-fire delay to the OPIs is the
//     channel's transfer delay.
//   - when an element has nothing to send, it still produces *empty
//     tokens* so its neighbours can keep iterating, and at reset every
//     channel is primed with InitialTokens empty tokens — without them the
//     system deadlocks (both straight from the paper).
//
// A fire occupies one flit cycle: for the clock's next FlitWords-1 edges
// the PIC only counts down, as it does through an injected stall. A
// Wrapper is a sim.Sleeper that sleeps through those edges, so the engine
// dispatches it only at the edges it may fire on; where every component
// of its clock sleeps, the clock strides over them and they cost no
// instant. A wrapper waiting for a token or for space is dispatched every
// edge.
//
// Slot alignment: each channel's InitialTokens initial marking makes a
// flit advance InitialTokens dataflow iterations per hop, so the TDM slot
// allocation must shift reservations by InitialTokens slots per hop
// instead of one — the paper's "the delay involved in clock-domain
// crossing is hidden by adapting the slot allocation". Callers achieve
// this by setting every link's PipelineStages to InitialTokens-1 before
// routing (core.PrepareTopology does it for Mode Asynchronous).
package wrapper
