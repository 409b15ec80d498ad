// Package trace is the structured observability layer of the aelite
// reproduction: it records every flit's lifecycle — NI injection, per-hop
// router traversal, link stage forwarding, ejection — as typed events with
// exact picosecond timestamps.
//
// The paper's central claim is predictability: per-connection latency and
// throughput bounds that hold cycle-for-cycle. Proving that claim needs an
// instrument, not prints. This package replaces the simulator's historical
// stringly-typed trace hook with an event bus that
//
//   - costs nothing when no sink is attached (components hold a nil
//     *Emitter and skip emission on a single pointer test);
//   - is deterministic: events are emitted from the engine's exact-time
//     edge dispatch in component add order, so the same seed produces a
//     byte-identical event stream;
//   - aggregates into the measurements NoC evaluations live on: per-link
//     slot utilisation, per-connection latency histograms and buffer
//     occupancy high-water marks (Metrics), and
//   - exports Chrome trace-event JSON loadable in chrome://tracing or
//     Perfetto (Chrome), plus CSV/JSON metric dumps.
//
// Component names are interned into small integer ids at registration time
// so that emission never allocates or hashes strings.
//
// Hyperperiod replay (internal/replay) re-emits recorded epochs. It hands
// the bus a whole stride of them at once (Bus.EmitEpochs with an Epoch):
// a Folder — Metrics, or the conformance auditor — takes the stride in
// one call and must end exactly as if it had received every shifted
// event in order; every other sink, Chrome among them, receives every
// shifted event in order. The auditor checks replayed copies event by
// event until one of them leaves its state as it found it, shifted by
// one epoch, with no report: every later copy then repeats that copy's
// verdicts, so it folds them.
//
// Typical use — attach a bus with a metrics sink before running, then
// render the aggregated report:
//
//	bus := trace.NewBus()
//	mx := trace.NewMetrics(bus)
//	net.AttachTracer(bus)
//	net.Run(warmupNs, measureNs)
//	rep := mx.Report(int64(net.Engine().Now()), int64(net.BaseClock().Period))
//	rep.WriteJSON(os.Stdout) // or rep.WriteCSV
//
// A Bus belongs to exactly one engine and is called from its goroutine
// only; sinks may run on one worker. While the bus queues (Bus.Queue,
// which the engine calls once a run is long enough), a Deferrable sink —
// Metrics, Chrome, an auditor that reports to a collector — takes its
// events in chunks on the bus's worker goroutine while the simulation
// goes on, and its accessors drain the bus first; every other sink
// receives each event inside Emit. Either way a sink sees every event, in
// emission order (Bus documents the drain points). Parallel sweeps give
// each point its own bus (see internal/parallel).
package trace
