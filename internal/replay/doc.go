// Package replay is the hyperperiod-compiled fast path of the simulator.
//
// The GS network is fully periodic: once slot tables are fixed, every
// router, link and NI action repeats each slot-table revolution, and every
// traffic source with a rational words-per-cycle rate repeats with its own
// pattern period. The least common multiple of all those component periods
// is the network's hyperperiod H. A Program records one full hyperperiod
// of cycle-accurate execution — the per-instant schedule of component
// edges and every emitted trace event — fingerprints the complete
// architectural state at consecutive hyperperiod boundaries, and, when two
// boundary fingerprints are byte-identical (time- and sequence-number-
// normalised), replays the recorded epoch without touching the clock-group
// ring, the timer heap, or any per-component Update dispatch. The
// engine lets no component sleep (sim.Sleeper) while a fast path is
// installed, so the recorded schedule is every component's every edge.
//
// The program anchors — marks every component and starts recording — at
// its first executed instant and again after every sim.Engine.Sync,
// engaged or not: a caller syncs to read or change state, as a
// measurement window's warm-up reset does, and that spoils the epoch
// being recorded. A measured run therefore costs warm-up + H + one cycle
// of cycle-accurate execution before replay engages, and whatever comes
// after is replayed. A component reports an epoch shift-clean unless
// something it keeps would not repeat: a traced high-water mark that
// rose, a statistics reset, or a connection's first-ever delivery (its
// word carries sequence number 0, which replay treats as invariant).
// Materialising folds the replayed epochs' latency samples into the
// report histograms in O(one epoch) when the fold is exact
// (stats.Histogram.AddRepeated).
//
// Replay deoptimises back to the cycle-accurate engine on any
// data-dependent event: a scheduled callback (fault injection,
// reconfiguration script) bounds each replay step, a structural mutation
// (component or wire added/removed, clock invalidated) materialises state
// immediately, and configurations that are not provably periodic —
// transactional traffic, asynchronous wrappers, reliability
// retransmission, armed fault checkers — never engage at all, because
// their components do not implement Periodic or report no period.
// Data-dependent arbitration is no such configuration: a best-effort
// router's wormhole state is fingerprinted like any other, and a run that
// repeats engages. Deopt is trace-invisible: recorded events are
// re-emitted with exact shifted timestamps during replay, and the residual
// partial epoch is resimulated with the trace bus muted.
//
// Replayed events reach the bus a whole epoch stride at a time: the
// recorded epoch, each event's sequence advance resolved once at
// engagement, goes to trace.Bus.EmitEpochs with the first copy and the
// number of copies. A trace.Folder folds the copies: trace.Metrics
// aggregates them, and the conformance auditor checks them one by one
// until a copy with no report leaves its state as it found it, shifted
// by one epoch, which proves that the rest repeat its verdicts. Every
// other sink receives every shifted event in order. Instants of a
// partial epoch are re-emitted one by one.
//
// The program finds what it fingerprints on the engine itself, at its
// first executed instant and after every structural change: every
// component must implement Periodic's four methods, and every wire is a
// phit wire (fingerprinted and shifted as a phit), a flit wire (the same,
// word by word) or an int wire (fingerprinted as a count). Any other component or wire makes the
// program inert, naming it; a wire with a commit-time intercept keeps the
// program from engaging while it is installed. No builder lists state for
// the program, so none can leave any out.
//
// Cross-package contract: engagement requires every component to be
// provably periodic — traffic generators qualify exactly when their rate
// reduces to a small rational words-per-cycle pattern, which is what the
// scenario package's replay-admissible rate quantisation guarantees for
// generated workloads. core.Build, core.BuildBE and routerless.Build each
// call Install unless core.Config.CycleAccurate is set; a program that
// finds its network aperiodic detaches itself. Experiments report its
// engagement counters, and Stats.DeoptsBy says why each engagement ended.
package replay
