// Package aethereal implements the baseline the paper compares against: a
// combined guaranteed-service / best-effort (GS+BE) Æthereal-style router
// network operated in best-effort mode (paper Section VII's second
// experiment runs all 200 connections as BE on the same mapping and
// paths).
//
// Unlike the aelite router, the BE router needs everything aelite deleted:
//
//   - input buffers several words deep per port;
//   - link-level flow control (credits) so those buffers never overflow;
//   - per-output round-robin arbitration, with wormhole packet locking
//     (a packet holds its output from header to End-of-Packet);
//   - consequently, its area and frequency suffer (captured in the area
//     model) and its latency depends on other traffic — composability is
//     lost, which the simulation makes visible.
//
// Source routing and header encoding are shared with aelite (package
// phit), as in the real Æthereal family.
//
// The package shares topology, route and phit with the aelite network so
// experiments.Compare (Section VII) runs both backends on the identical
// mapping, paths and header encoding; only arbitration differs.
//
// # Change-only drives
//
// A cycle costs what its traffic costs. Router and NI copy a sampled word
// only when it is valid, do nothing at all while nothing is buffered, came
// in or needs retracting, and drive a data or credit wire only on a change:
// every valid word (non-zero credit count), and the one idle (zero) after
// it. An undriven wire keeps its value, so readers see what they always
// saw; only a commit-time intercept could tell, and core.BuildBE, which
// owns the wires, installs none. Arbitration collects one request mask per
// output from the latched head ports and picks round-robin by bit scan.
//
// # Replay
//
// Router and NI implement replay.Periodic (replay.go), and core.BuildBE
// installs a hyperperiod replay program unless core.Config.CycleAccurate
// is set; the program fingerprints every data and credit wire it finds on
// the engine. Neither component reads
// absolute time, so each has a period of one cycle and the hyperperiod is
// the generators'. Wormhole arbitration is data-dependent, but it is a
// function of the fingerprinted state — buffered words, latched routes,
// locks, round-robin pointers, credits, pending retractions and send
// queues — so two equal fingerprints one hyperperiod apart prove the run
// repeats, and replay engages without any bound on the fabric's transient
// or period. Transactional traffic has no admissible period: its program
// goes inert at the first instant and leaves the engine.
//
// # Known simplification
//
// Outputs are arbitrated in port order within one cycle, and an End-of-Packet
// pop frees its input at once: a higher-numbered output can take that
// input's next header in the same cycle, so two words leave one input buffer
// in one cycle. A real buffer has one read port. This favours the BE
// baseline, every Æthereal digest depends on it, and
// TestRouterTwoPopsInOneCycle and the old-router differential test pin it.
package aethereal
