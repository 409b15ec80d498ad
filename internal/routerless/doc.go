// Package routerless models a routerless ring-overlay NoC in the style
// of Indrusiak & Burns, "Real-Time Guarantees in Routerless
// Networks-on-Chip": the tiles' network interfaces sit as stops on a set
// of unidirectional rings (one per mesh row, one per mesh column, plus a
// global snake ring), and flits ride rotating TDM slots around a ring
// instead of being switched by routers.
//
// Injection is interleaved by slot ownership: every connection owns a
// set of slot positions on exactly one ring, and its source stop may
// inject only when an owned slot rotates past. Because a flit travels
// strictly less than one revolution before its destination stop ejects
// it, an owned slot always returns to its owner empty — the schedule is
// contention-free by construction, exactly like aelite's slot tables,
// and the same MaxGap argument yields a per-connection worst-case
// latency bound: a ring is a slot table of S slots with one flit cycle
// of transit per segment, so its bounds are analysis.ConnectionBounds at
// shift = hops, CBR and transactional alike. Network.Contracts states
// them, with one S-slot table per sourcing stop, and audit.Attach takes
// them as it takes the mesh's, so the shared conformance auditor judges
// this backend with the same checks it applies to aelite, the slot
// quota per revolution of each ring included.
//
// The model deliberately mirrors the aelite flit format — three words
// per slot, one of them header-equivalent overhead — so a slot's
// bandwidth is directly comparable between the two fabrics. It is built
// from the same core.Config as they are and offered the same traffic
// (Config.Traffic): same mapping, same offered load.
//
// # Visit table
//
// After rot flit cycles slot sid stands at stop (sid + rot) mod S, and of the
// S stops it passes per revolution only two can act on it: its owner's
// destination (ejection, at rotation (dstPos - sid) mod S) and its owner's
// source (injection, at (srcPos - sid) mod S). Build lists those meetings per
// rotation in stop order, and a flit cycle walks its rotation's list: 2 x
// owned slots per revolution instead of S x S stop probes, same event order.
//
// # Hyperperiod replay
//
// A ring is a replay.Periodic with period S x FlitWords base cycles: one
// revolution returns the rotation and the word within the flit, the only
// ways it reads absolute time. Its fingerprint is the rotation, the word,
// the next edge, every slot's cargo and every source queue, with times
// against the boundary and sequence numbers against each connection's
// generator. A shift moves those times and sequence numbers by whole
// epochs. Each connection's report statistics are an ni.ConnStats, the
// aelite NI's recorder: the ring's mark and shift are loops over their
// Mark and Shift, which snapshot and move the delivery counts and
// last-delivery instants and replay the closed epoch's latency samples
// into the histograms. Build installs a replay.Program unless
// core.Config.CycleAccurate is set (Network.Replay), so a periodic overlay
// runs at the cost of re-emitting its events.
package routerless
