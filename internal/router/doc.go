// Package router implements the aelite router (paper Section IV).
//
// The router is deliberately minimal — that minimality is the paper's
// point. It has:
//
//   - three pipeline stages, matching the 3-word flit: an input register,
//     a Header Parsing Unit (HPU) per input, and a switch;
//   - no routing table: the output port comes from the source route in the
//     packet header, and the HPU shifts the path field one hop per router;
//   - no arbiter: TDM slot allocation guarantees no two flits ever want
//     the same output in the same cycle. The switch *asserts* this; a
//     collision means the allocation (or a model) is broken and the
//     simulation halts rather than silently arbitrating;
//   - no link-level flow control and a single one-word buffer per input
//     (the input register): GS-only operation means a flit that enters a
//     router always has a reserved slot downstream;
//   - explicit sideband valid and End-of-Packet bits, so the HPU never
//     decodes data and stays off the critical path;
//   - parameters only for data width (the header layout) and arity.
//
// Core is the cycle-exact state machine, and it has two adapters.
// A synchronous network runs on flit links exactly when it has no fault
// reporter (core.Config.FaultReporter, which also brings the ownership
// probes), and FlitComponent drives the Core there (fault.FlitLink,
// a *sim.Wire[phit.Flit], connected once by core.instantiateFlits, whose
// one fabric component switches every router at flit edges): the
// pipeline's latency is exactly one flit cycle, so the link register is
// the pipeline, and the router switches whole flits at flit edges,
// skipping inputs with an empty flit. It has no reporter, so every
// envelope check fails fast. Component drives the Core on word links
// (*sim.Wire[phit.Phit]: the mesochronous fabric, whose link stages
// re-align words across clock domains, every synchronous network with a
// fault reporter, and tests): it reads the wires into the buffer
// that becomes stage 1, and an idle port costs a valid-bit test per
// stage. Nothing in the router is looked up by id — the output port
// comes out of the header, and every RouterForward names the flit's
// connection, output port and instant, which the auditor
// (internal/audit) checks against the output link's allocation on either
// link kind. The asynchronous wrapper
// (package wrapper) and FlitComponent drive the same Core at flit
// granularity: StepFlitDirect fires the pipeline's own HPU, switch and
// envelope checks on each word of a token, so there is a single source of
// truth for router behaviour (TestFlitDirectMatchesStep).
package router
