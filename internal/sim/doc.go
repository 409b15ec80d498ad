// Package sim is a deterministic, multi-clock-domain, cycle-accurate
// simulation engine for on-chip networks.
//
// The engine advances absolute time (integer picoseconds, see package
// clock) from rising edge to rising edge. All components whose clocks have
// an edge at the current instant execute in two phases:
//
//  1. Sample: every due component that reads wires (a Sampler) reads them.
//     Wires still hold the values committed before this instant, so a
//     reader clocked at the same instant as a writer observes the writer's
//     *previous* output — exactly the register-transfer semantics of
//     synchronous hardware. A component with no Sample method costs
//     nothing in this phase.
//  2. Update: every due component computes its next state and drives its
//     output wires. Drives are buffered.
//  3. Commit: all buffered drives become visible.
//
// Components are grouped by clock, and the groups sit in a ring sorted by
// next edge: the due group is the head, and advancing it walks it back
// from the tail past every group strictly later, which is no step when the
// periods are equal. A component that implements Sleeper (a traffic
// generator between words) tells the engine after each Update how many of
// its next edges would only advance counters; those edges are counted but
// not dispatched, and the component is passed their number before its
// next Update or before anything outside dispatch can observe it.
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
