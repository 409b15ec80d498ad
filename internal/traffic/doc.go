// Package traffic provides IP traffic models for driving NoC simulations:
// constant-bit-rate, bursty and transactional generators that write into
// an NI's IP-side FIFO with blocking semantics (the paper's IPs use
// blocking writes; an oversubscribing application simply slows down under
// back-pressure).
//
// Model.Generator is the only constructor: it owns the shape choice, the
// transaction-size table (TxWordsForRate) and the start stagger, and every
// backend builds its generators through it, so one use case is offered the
// same words on every fabric.
//
// A generator names its connection by id and hands every word to its
// Port under that id; the port resolves the id (the aelite NI by a binary
// search over the few connections it sources). A generator has an edge
// every cycle — most of the engine's edges — but offers a word on few of
// them, so it is a sim.Sleeper: after each Update, Idle counts the edges
// before its next word (none before its start, with a backlog or inside a
// transaction), and Skip advances the accumulator or burst position over
// them in one step. Update compares a wrapped burst position instead of
// dividing the burst phase.
//
// Generators are the periodicity root of the replay fast path: a CBR
// rate that reduces to a small rational words-per-cycle pattern makes
// the generator provably periodic (internal/replay), which is why
// internal/scenario quantises generated rates to exactly that family.
package traffic
