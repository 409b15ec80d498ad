// Package analysis provides the analytical model of aelite's guaranteed
// services: the throughput and worst-case latency of a connection follow
// directly from its TDM slot reservation and its transit shift, the flit
// cycles from the source NI to the last link (paper Section VII, problem
// 3). Both slot-scheduled fabrics share it: the aelite mesh passes a
// route's TotalShift, the routerless ring overlay its hops.
//
// Conventions: the clock period is T = 1/f; a slot is one flit cycle
// (3 cycles); a slot table of size S revolves every 3·S·T. A flit carries
// at most 2 payload words when it opens a packet (header + 2) and 3 when
// it extends one. All bandwidth math conservatively assumes 2 payload
// words per slot, so measured throughput with header elision can exceed
// the guarantee but never fall short. With the end-to-end reliability
// shell the accounting is one word tighter still: the sideband word
// (sequence, cumulative ack, CRC) occupies one of the three link words in
// a hardware-faithful budget, leaving 1 guaranteed payload word per slot.
// The simulator carries the sideband on dedicated extra wires, so a
// reliable connection over-delivers against this guarantee — the
// conformance auditor (internal/audit) checks exactly that direction.
//
// Cross-package contract: on the mesh the slot-shift convention here
// must equal the one route.Hop.Shift records and internal/slots claims by (one slot per
// router hop, one per link pipeline stage), or bounds silently detach
// from the schedule. Every bound this package derives is enforced
// dynamically by internal/audit, and internal/scenario clamps generated
// latency budgets with these formulas so large workloads stay jointly
// allocatable.
package analysis
