package analysis

import "repro/internal/phit"

// A Contract is one connection's analytical guarantee in fabric-neutral
// form: what the analysis yields for it, and everything the conformance
// auditor (internal/audit) needs to judge its traced behaviour without
// knowing how the fabric derived the numbers.
type Contract struct {
	Conn    phit.ConnID
	SrcName string // source endpoint component name (for summaries)
	DstName string // destination endpoint component name

	// BoundPs is the latency a compliant word may take from injection to
	// delivery, in picoseconds: the analytical worst case plus whatever
	// allowance the fabric grants on top (the reliability shell's
	// recovery rounds).
	BoundPs float64
	// WaitBudgetPs is how long a compliant word may sit in the source
	// queue before its Send, in picoseconds, allowance included.
	WaitBudgetPs float64
	// GuaranteeMBps feeds the injection token bucket.
	GuaranteeMBps float64
}

// A ContractSet is every contract of one built fabric plus the
// fabric-wide facts the checks need. A fabric states it afresh on every
// call; the auditor keeps the slices it is handed.
type ContractSet struct {
	// FreqMHz is the fabric clock; it sizes the flit cycle of the
	// slot-exclusivity check and of a table revolution.
	FreqMHz float64
	// WordBytes converts bandwidth guarantees to words for the token
	// bucket.
	WordBytes int
	// Asynchronous marks plesiochronous clocks, each within PPM parts
	// per million of nominal: sub-flit-cycle spacing between different
	// resources' events is then legitimate, so slot exclusivity is not
	// checked, and drift widens the token bucket's rate margin.
	Asynchronous bool
	PPM          float64
	Contracts    []Contract

	// AllocTables are the allocation-side slot tables, keyed by the
	// component name that emits SlotStart events: table[slot] is the
	// channel owning that slot at that component (phit.None for free
	// slots). Every slot of a channel sits in one table: its quota is
	// the number of slots it owns there, and its revolution is the
	// table's length in flit cycles.
	AllocTables map[string][]phit.ConnID
	// RouterTables are the allocation's link tables by router output,
	// keyed by the component name that emits RouterForward events:
	// RouterTables[name][port][slot] is the channel owning that slot on
	// the link leaving the router at that output port (phit.None when
	// free; a nil table for a port without a link). They are apart from
	// AllocTables, which hold injection quotas.
	RouterTables map[string][][]phit.ConnID
}
