// Package sim is a deterministic, multi-clock-domain, cycle-accurate
// simulation engine for on-chip networks.
//
// The engine advances absolute time (integer picoseconds, see package
// clock) from rising edge to rising edge. All components whose clocks have
// an edge at the current instant execute in two phases:
//
//  1. Update: every due component reads its input wires, computes its
//     next state and drives its output wires. Drives are buffered, so a
//     wire holds the value committed before this instant through the whole
//     phase: a reader clocked at the same instant as a writer observes the
//     writer's *previous* output — exactly the register-transfer semantics
//     of synchronous hardware — whatever the dispatch order.
//  2. Commit: the buffered drives become visible. Each clock group commits
//     only the wires driven since its last commit; a group holding a wire
//     with a commit-time intercept commits all its wires at every edge, so
//     the intercept sees every writer edge.
//
// Components are grouped by clock, and the groups sit in a ring sorted by
// next needed edge: the due group is the head, and advancing it walks it
// back from the tail past every group strictly later, which is no step
// when the periods are equal. A component that implements Sleeper (a
// traffic generator between words, an asynchronous wrapper between fires)
// tells the engine after each Update how many of its next edges would only
// advance counters, and is dispatched again only at the edge after them:
// a long sleeper waits in its group's wake calendar, a short one stays in
// the dispatch list, passed over. When every component of a clock sleeps,
// the clock strides: its ring entry advances straight to the first edge a
// component wakes at, so the edges between cost no instant at all. Slept
// edges count in Edges but cost nothing, and the component is passed their
// number before its next Update or before anything outside dispatch can
// observe it. Dispatched counts the Update calls made.
//
// Components in different clock domains simply fire at different instants;
// cross-domain channels (bi-synchronous FIFOs, token channels) are modelled
// in package sim as well, with explicit forwarding delays, because they are
// the only legal clock-domain crossings in aelite.
//
// Only things whose commit does work are registered with the engine. A
// Wire buffers a drive until the commit phase, so it is registered
// (AddWire, AddWireClocked). A Bisync or a TokenChannel changes state the
// moment it is pushed or popped and hides a word from its reader by
// timestamp (visible <= now), so it has no commit and the engine never
// hears of it: the simulator pays per firing, not per channel per instant.
//
// The engine is strictly single-threaded (design-space parallelism lives
// in internal/parallel, one private engine per point) and deterministic
// to the picosecond, which is what makes trace comparison, composability
// checks and the replay fast path (internal/replay, via the FastPath
// hook) sound.
package sim
