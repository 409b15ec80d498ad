// Package fault is the fault-injection and violation-observation subsystem
// of the aelite reproduction.
//
// The paper's guarantees hold only inside a strict operating envelope:
// writer/reader skew of at most half a clock cycle, a bi-synchronous FIFO
// forwarding delay of one to two cycles, contention-free TDM slots, whole
// flits in used slots, live asynchronous wrappers. The simulator checks
// that envelope everywhere — historically by panicking, which is the right
// default for catching modelling errors but makes it impossible to *study*
// behaviour at or beyond the boundary.
//
// This package separates mechanism from policy:
//
//   - a Violation is a structured record of one envelope breach (kind,
//     component, time, slot, detail);
//   - a Reporter receives violations. A nil Reporter (or FailFast)
//     selects strict mode: Report panics with the violation's message,
//     byte-compatible with the historical fail-fast behaviour. A Collector
//     selects collecting mode: the component records the violation and degrades
//     gracefully (drops the phit, clamps the credits, closes the packet)
//     instead of killing the process;
//   - a Plan is a deterministic, seedable schedule of fault events
//     (clock drift and jitter, phit drop/corrupt/duplicate, FIFO delay
//     stretch, wrapper PIC stall), armed on a simulation engine by a
//     Campaign at exact picosecond times so campaigns are bit-reproducible;
//   - invariant Checkers (SlotChecker, LivenessChecker) are engine
//     components that continuously verify the paper's core claims while
//     faults are being injected.
//
// Link faults, slot checkers and ownership probes act on word links
// (LinkTarget, a phit wire with a commit-time intercept). A fault reporter
// (core.Config.FaultReporter) is the one trigger of a watched network: it
// runs on word links with an ownership probe on every link, and
// FailFast keeps such a network strict. A synchronous network without a
// reporter runs on flit links (FlitLink), which refuse to hand out fault
// targets; the auditor (internal/audit) still checks every router output
// against the allocation there.
//
// The usual single-campaign shape, with Execute wiring the checkers,
// arming the plan and summarising in one call:
//
//	plan, err := fault.ParseSpec("drop@9000:l0.:2;random:3", seed)
//	if err != nil { ... }
//	col := fault.NewCollector()
//	net := buildNetwork(col) // a fault.System, e.g. *core.Network
//	summary, err := fault.Execute(plan, col, net, func() {
//		net.Run(warmupNs, measureNs)
//	})
//	if err != nil { ... }
//	summary.Write(os.Stdout)
//
// Multi-campaign sweeps (e.g. the same plan across consecutive seeds) fan
// out with parallel.Map, which keeps results keyed by point index so the
// output is byte-identical at every worker count:
//
//	sums, err := parallel.Map(jobs, n, func(i int) (*fault.Summary, error) {
//		// build a private network and plan for point i, then fault.Execute
//	})
package fault
