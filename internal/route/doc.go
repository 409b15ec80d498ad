// Package route computes source routes through a NoC topology.
//
// aelite uses source routing: the whole route is decided at the source NI
// and encoded in the packet header as a sequence of output-port indices,
// one per router (paper Section III/IV). A reservation is nothing more than
// a sequence of links, shifted one slot per hop, and that is what a Path
// stores:
//
//   - Links, the ordered hops the flit occupies (for TDM slot accounting),
//     each a 32-bit link id with the TDM slot shift at which the flit
//     enters it. A flit injected in slot s occupies a hop's link in slot
//     s + Shift: every router adds one slot (its 3-cycle flit cycle) and
//     every mesochronous link pipeline stage adds one more (paper
//     Section V). Eight bytes a hop, one backing array per path, sized
//     exactly: a plan on a large mesh keeps tens of thousands of candidate
//     paths alive, so this is the plan's memory.
//   - TotalShift, the slot offset of arrival at the destination NI.
//
// What only an adopted path needs is derived on demand: Hops from the
// link count, and Ports — the per-router output ports the header encodes
// — from the links' source ports, by the two sites that encode a header.
//
// Cross-package contract: Candidates feeds the slots allocators their
// per-request path choices, and the hop shifts and TotalShift must agree
// with the slot arithmetic in internal/slots and the fixed-latency terms in
// internal/analysis — the three packages share one shift convention.
package route
