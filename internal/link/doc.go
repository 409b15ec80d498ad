// Package link models aelite's links: plain synchronous wires and the
// mesochronous link pipeline stage of paper Section V.
//
// A mesochronous stage decouples the phase (not the frequency) of writer
// and reader. It consists of:
//
//   - a bi-synchronous FIFO written with the clock that travels with the
//     data (source-synchronous), 4 words deep — deep enough, under the
//     paper's assumptions, to never fill, so it needs no full/accept
//     handshake back to the writer;
//   - an FSM in the reader clock domain tracking the position within the
//     current flit (states 0, 1, 2). When a new flit cycle begins (state
//     0) and the FIFO holds at least one word, the FSM asserts valid
//     toward the router and accept toward the FIFO for the succeeding
//     three cycles, forwarding exactly one flit.
//
// The re-alignment makes a link traversal take exactly one flit cycle in
// the reader's clock, so TDM reservations shift by one slot per stage —
// the same shift a router adds — and the whole NoC can be reasoned about
// as globally flit-synchronous. Each router-to-router link of a
// mesochronous network carries exactly one stage (core.PrepareTopology):
// the network builds it with NewStage and registers its two components,
// the writer tap and the reader FSM (Stage.Components), with the engine.
//
// The paper's operating assumptions are checked, not assumed: skew at most
// half a clock cycle — the bound is inclusive, skew of exactly half a
// period is the largest legal value ("at most half a clock cycle", Section
// V) — FIFO forwarding delay of 1-2 cycles with skew+delay small enough to
// make the alignment land one flit cycle downstream, and a nominal rate of
// one word per cycle (used slots carry whole 3-word flits).
//
// A violated assumption is reported through the fault.Reporter NewStage
// takes: with a nil reporter it panics, because silently mis-aligned
// hardware would corrupt the TDM schedule; with a collector, the stage
// records a structured fault.Violation and keeps running out of envelope
// so campaigns can observe the failure mode.
package link
