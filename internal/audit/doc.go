// Package audit closes the loop between the paper's two headline claims
// and what the simulator actually does.
//
// Aelite promises predictable services — a worst-case latency and a
// guaranteed throughput computable from nothing but the TDM slot
// reservation and the path (paper Section VII) — and composable services
// — one connection's observable behaviour is bit-independent of every
// other connection's traffic (Section III). Both claims live in
// internal/analysis as formulas; this package holds every simulated flit
// to them.
//
// An Auditor is a trace.Sink. It derives no contract: every fabric
// states its own (a ContractSource returns an analysis.ContractSet), so
// the auditor imports no fabric and judges the aelite mesh and the
// routerless rings through one door, Attach. Attached to the event bus
// of a built network, it asserts, event by event:
//
//   - injection regulation: a token bucket at the connection's guaranteed
//     rate polices every Inject — the GS contract only binds the bounds
//     while the source stays inside its allocation, so an oversubscribing
//     connection is flagged once and its bound checks withdrawn (it only
//     ever slows itself down);
//   - bound compliance: every Eject's injection-to-delivery latency is
//     checked against the analytical worst case (plus the retransmission
//     allowance in reliable mode);
//   - in-order delivery: Eject sequence numbers must advance by exactly
//     one;
//   - slot conformance: every SlotStart must occur in a slot the
//     *allocation* assigns to that connection (catching live-table
//     corruption), and so must every RouterForward on its output link
//     (ContractSet.RouterTables; its slot is the instant's flit cycle, so
//     not under asynchronous clocking) — the paper's invariant that no
//     two flits use one link in one slot, checked where a misrouted flit
//     first takes a slot; a channel owning q slots of its table starts at
//     most q+1 flits per revolution of that table, and no two connections
//     may use the same NI, router output port, or link stage within one
//     flit cycle (except under asynchronous clocking).
//
// Connection and component ids are resolved by index, not by hash: the
// per-connection contracts and slot quotas are slices indexed by ConnID,
// sized when a contract set is loaded (Attach, Resync) to the ids it
// has, and the per-component ownership tables and last uses are a
// slice indexed by trace.CompID, grown to the ids the bus has interned. An
// event naming any other id — the bus can carry anything — is an unknown
// connection, a component without a table, a resource that does not
// exist; it is never an index.
//
// Replayed epochs (internal/replay) reach the auditor through Fold, a
// stride of shifted copies at a time. It checks each copy event by event
// until one proves the rest repeat its verdicts, by induction: every
// check compares times only with times of the same copy or of the
// auditor's state, and divides time only by periods the epoch length is
// a multiple of, so a copy that reports nothing and leaves the state it
// found shifted by one epoch (equal token buckets, flags and maximum
// latencies; last uses, bucket times and revolution indices moved by one
// epoch or not at all; next sequence numbers moved by the sequence
// advance of the connection's Ejects) is followed by copies that do the
// same. The remaining copies then fold in O(connections + components).
// The check needs no trust in replay: the recorded epoch reached the
// auditor live, and every copy it folds is trace.Epoch.At of it.
//
// Violations flow through the fault.Reporter machinery: a nil reporter
// fails fast on the first violation (strict mode), a fault.Collector
// records them all with one-line diagnostics.
//
// The composability claim needs two runs, not one: Isolation re-executes
// a scenario with the *other* connections' traffic perturbed and diffs
// the audited connections' delivery timelines for byte identity, fanning
// the paired runs over internal/parallel. A Deliveries sink
// (RecordDeliveries) records those timelines off the bus: every Eject of
// a watched connection after the measurement window opens.
package audit
