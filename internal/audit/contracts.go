package audit

import (
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/trace"
)

// A Contract is one connection's analytical guarantee in backend-neutral
// form: everything the auditor needs to judge the traced behaviour of a
// connection without knowing how the backend derived the numbers. The
// aelite path keeps using Attach (which snapshots a *core.Network
// directly); backends without a core.Network — the routerless ring
// overlay, and any future fabric with its own bound derivation — build
// Contracts from their own analysis and attach through AttachContracts.
type Contract struct {
	Conn    phit.ConnID
	SrcName string // source endpoint component name (for summaries)
	DstName string // destination endpoint component name

	// BoundNs is the backend's analytical worst-case end-to-end latency
	// for a compliant word, in nanoseconds.
	BoundNs float64
	// WaitBudgetNs is the source-side dwell budget at the raw bound: how
	// long a compliant word may sit in the source queue before its Send.
	WaitBudgetNs float64
	// GuaranteeMBps feeds the injection token bucket; zero disables rate
	// regulation for this connection.
	GuaranteeMBps float64
}

// A ContractSet carries every contract of one built backend instance plus
// the fabric-wide facts the checks need.
type ContractSet struct {
	// FreqMHz is the fabric clock; it sizes the flit cycle used by the
	// slot-exclusivity check.
	FreqMHz float64
	// WordBytes converts bandwidth guarantees to words for the token
	// bucket.
	WordBytes int
	Contracts []Contract

	// AllocTables are the allocation-side slot-ownership tables, keyed
	// by the component name that emits SlotStart events: table[slot] is
	// the connection owning that slot at that component (phit.None for
	// free slots). Nil tables disable the ownership check.
	AllocTables map[string][]phit.ConnID
}

// AttachContracts builds an Auditor from explicit backend contracts and
// subscribes it to the bus. It shares every check and reporting path with
// the aelite Attach — only contract construction differs — so a
// violation means the same thing regardless of which backend produced
// the trace. The slot-exclusivity check is always on: a contract fabric
// runs one clock, so no two connections legitimately share a resource
// within a flit cycle. The per-revolution slot quota is the exception: it
// needs one table revolution, which a fabric of unequal rings does not
// have, so only Attach arms it.
func AttachContracts(set ContractSet, bus *trace.Bus, rep fault.Reporter, opts Options) *Auditor {
	a := newAuditor(bus, rep, opts, set.FreqMHz, true)
	var high phit.ConnID
	for _, c := range set.Contracts {
		high = max(high, c.Conn)
	}
	a.growConns(high)
	for _, c := range set.Contracts {
		if c.Conn <= phit.None || a.conns[c.Conn] != nil {
			continue // not an id an event can carry a contract under, or a duplicate
		}
		ca := &connAudit{
			id:            c.Conn,
			srcName:       c.SrcName,
			dstName:       c.DstName,
			guaranteeMBps: c.GuaranteeMBps,
			boundPs:       c.BoundNs * 1e3,
			waitBudgetPs:  c.WaitBudgetNs * 1e3,
			rate:          c.GuaranteeMBps * 1e6 / float64(set.WordBytes) / 1e12 * rateMargin,
			depth:         bucketWords,
			reported:      make(map[fault.Kind]int),
		}
		ca.tokens = ca.depth
		a.conns[c.Conn] = ca
		a.order = append(a.order, c.Conn)
	}
	for name, table := range set.AllocTables {
		a.allocTables[name] = append([]phit.ConnID(nil), table...)
	}
	bus.Attach(a)
	return a
}
