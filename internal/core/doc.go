// Package core is the public façade of the aelite reproduction: it turns a
// use-case spec plus a topology into a fully allocated, runnable,
// cycle-accurate network, and reports per-connection guarantees and
// measurements.
//
// The design flow mirrors the Æthereal tooling the paper builds on
// (reference [16]): map IPs to NIs, route each connection (XY with YX
// fallback), size its TDM slot reservation from its throughput and latency
// requirements, allocate contention-free slots, derive buffer sizes and
// credits, then instantiate routers, link pipeline stages, NIs and traffic
// and simulate.
//
// Build is all-or-nothing: a use case either gets every connection
// allocated (searching candidate slot-table sizes if none is pinned) or
// an error. PlanAllocation is the allocation-only, best-effort
// counterpart used by scale studies to measure success rates; the
// Allocator config field selects the slots.Allocator strategy for both.
// A use case must never be shared across builds, and neither must a mesh:
// a build sets its link pipeline depths for its clocking mode
// (PrepareTopology).
//
// A connection is set up by one piece of code (conn.go): route, size,
// derive and attach each have one function, Build runs them for every
// connection of the use case and Admit runs the same ones for one more at
// run time. Run-time admission (admit.go) is one decision per request:
// Probe makes it on a clone of the slot allocation, Admit on the live one,
// and either answers with a typed Decision; the Healer (heal.go) turns
// quarantines into close and re-admission. BuildBE, the Æthereal best-effort baseline, takes
// the same Config and offers the same traffic (Config.Traffic).
package core
