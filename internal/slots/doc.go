// Package slots implements the TDM machinery at the heart of aelite's
// contention-free routing (paper Section III).
//
// Time is divided into slots of one flit cycle (3 cycles) each; slot
// tables of a common size S repeat forever. A connection that owns
// injection slot s at its source NI occupies link k of its path during
// slot (s + shift_k) mod S, where shift_k grows by one per router hop and
// by one per mesochronous link pipeline stage. An allocation is
// contention-free when no link is claimed by two connections in the same
// slot; the network then needs no arbiters at all.
//
// The Allocator interface is the strategy seam: Greedy is the baseline
// first-fit pass, RipUp the Even & Fais-style bounded
// rip-up-and-reroute, and ByName resolves CLI/config names. Allocation
// is the shared claim store either strategy fills; Verify re-checks the
// contention-free invariant after every pass, and core consumes the
// result, at build time and for run-time admission. Claims are only ever made on free slots, which is what
// makes online reconfiguration composable.
//
// Data layout: occupancy is one row per claimed link (owner per slot, the
// same as a bitset, and a count); an Assignment lists its injection slots
// and, parallel to them, the path each slot rides. The placement search
// and Verify work out of scratch buffers the Allocation owns, so placing a
// request allocates nothing but the Assignment returned — and so they,
// like Claim, must not run concurrently on one Allocation.
package slots
