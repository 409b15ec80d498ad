package core

import (
	"fmt"
	"sort"

	"repro/internal/clock"
	"repro/internal/fault"
	"repro/internal/ni"
	"repro/internal/phit"
	"repro/internal/slots"
	"repro/internal/spec"
	"repro/internal/topology"
)

// Use-case reconfiguration (the Æthereal capability of reference [16],
// "undisrupted quality-of-service during reconfiguration of multiple
// applications"): applications can be stopped and new ones admitted at
// run time. Because the only state shared between connections is slot
// ownership, and a newly admitted connection claims only currently free
// slots, running applications are — by construction — not disturbed: the
// composability tests assert their timing stays bit-identical across a
// reconfiguration.

// CloseConnection stops a data connection and releases its (and its
// credit channel's) slot reservations. It first disables the traffic
// generator, then simulates until the connection's pipeline has drained
// (send queue empty plus in-flight flits delivered), and only then frees
// the slots — freeing earlier would let a new owner collide with
// in-flight flits, which the probes and routers would (correctly) flag
// as schedule violations.
//
// A quarantined connection cannot drain — its sender transmits nothing by
// design — so its queue contents are abandoned: once the tables are
// cleared and the slots released, the stranded words can never enter the
// network, and nothing the connection leaves behind is observable by
// anyone else.
//
// The NI-side queue configuration and queue ids remain registered (idle);
// hardware reconfiguration reprograms tables, not queue RAM. Re-admission
// therefore uses a fresh connection id.
func (n *Network) CloseConnection(id phit.ConnID) error {
	info, ok := n.conns[id]
	if !ok {
		return fmt.Errorf("core: unknown connection %d", id)
	}
	// Reconfiguration mutates tables and generator state outside the
	// engine's Run loop; land any fast-forwarded replay state first.
	n.eng.Sync()
	g := n.gens[id]
	g.SetEnabled(false)

	// Drain: wait for the source queue to empty, then two table
	// revolutions for in-flight flits and credit returns.
	src := n.nis[info.srcNI]
	revolution := clock.Duration(3*n.Cfg.TableSize) * n.base.Period
	quarantined := false
	if ep := src.Reliable(); ep != nil && ep.Quarantined(id) {
		quarantined = true
	}
	if !quarantined {
		// Worst-case drain time: each queued word needs an owned slot
		// *and* an end-to-end credit, and credits return one reverse-slot
		// round trip after a delivery — so budget one credit round trip
		// (in revolutions, rounded up, plus scheduling margin) per queued
		// word, rather than a hard-coded constant that a large table or a
		// slow credit channel can exceed.
		rtRevs := (info.ackRTSlots + n.Cfg.TableSize - 1) / n.Cfg.TableSize
		maxWait := 4 + ni.SendCapacity*(rtRevs+2)
		for i := 0; i < maxWait; i++ {
			if src.SendQueueSpace(id) == ni.SendCapacity {
				break
			}
			n.eng.Run(n.eng.Now() + revolution)
			n.eng.Sync()
		}
		if src.SendQueueSpace(id) != ni.SendCapacity {
			return fmt.Errorf("core: connection %d did not drain (credit starvation?)", id)
		}
		n.eng.Run(n.eng.Now() + 4*revolution)
		n.eng.Sync()
	}

	// Clear the injection tables, then release the allocation.
	clearTable := n.niTables[info.srcNI]
	for s := range clearTable.Slots {
		if clearTable.Slots[s] == id {
			clearTable.Slots[s] = phit.None
		}
	}
	revTable := n.niTables[info.dstNI]
	for s := range revTable.Slots {
		if revTable.Slots[s] == info.rev {
			revTable.Slots[s] = phit.None
		}
	}
	// One more revolution so in-flight credit-only flits of the reverse
	// channel are out of the network before its slots are reused.
	n.eng.Run(n.eng.Now() + 2*revolution)
	n.eng.Sync()
	// Both directions leave the allocation in one atomic step: the table
	// never shows a half-closed connection.
	n.Alloc.ReleaseAll(id, info.rev)
	delete(n.conns, id)
	delete(n.gens, id)
	n.retired[id] = true
	n.retired[info.rev] = true
	return nil
}

// FreshConnID returns an id above everything ever used on this network —
// the id a re-admission (self-healing reroute, use-case switch) should
// carry, since closed ids keep their NI queue registrations.
func (n *Network) FreshConnID() phit.ConnID {
	return n.idHigh + 1
}

// SpecOf returns the requirements spec of an open data connection — what
// a reroute re-admits under a fresh id.
func (n *Network) SpecOf(c phit.ConnID) (spec.Connection, error) {
	info, ok := n.conns[c]
	if !ok {
		return spec.Connection{}, fmt.Errorf("core: unknown connection %d", c)
	}
	return info.spec, nil
}

// A QuarantineEvent records one connection's quarantine transition, for
// the self-healing layer to consume between engine runs.
type QuarantineEvent struct {
	Conn phit.ConnID
	Time clock.Time
}

// recordQuarantine is the endpoint hook: it only queues the event —
// quarantine fires inside the engine's event processing (possibly inside
// CloseConnection's own drain runs), where reconfiguring would re-enter
// the engine.
func (n *Network) recordQuarantine(now clock.Time, conn phit.ConnID) {
	n.pendingQuar = append(n.pendingQuar, QuarantineEvent{Conn: conn, Time: now})
}

// takeQuarantined drains the queue of quarantine transitions recorded
// since the last call. Callers (the Healer) invoke it between
// engine runs and react by closing and re-admitting the victims.
func (n *Network) takeQuarantined() []QuarantineEvent {
	out := n.pendingQuar
	n.pendingQuar = nil
	return out
}

// ConnectionLinks returns every link a data connection's slots ride —
// both the data direction and its credit channel, across all per-slot
// paths — ascending and deduplicated. The self-healing reroute feeds the
// router-to-router subset back into Admit as its avoid set.
func (n *Network) ConnectionLinks(c phit.ConnID) ([]topology.LinkID, error) {
	info, ok := n.conns[c]
	if !ok {
		return nil, fmt.Errorf("core: unknown connection %d", c)
	}
	seen := make(map[topology.LinkID]bool)
	for _, id := range []phit.ConnID{c, info.rev} {
		asg := n.Alloc.ByConn[id]
		if asg == nil {
			continue
		}
		for _, p := range asg.PathOf {
			for _, h := range p.Links {
				seen[h.Link] = true
			}
		}
	}
	out := make([]topology.LinkID, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// InjectionTable exposes the live injection slot table of an NI — the
// object the hardware reads and run-time reconfiguration reprograms in
// place (the audit residue check reads it).
func (n *Network) InjectionTable(id topology.NodeID) *slots.Table {
	return n.niTables[id]
}

// ReverseOf returns the credit-channel connection id of a data
// connection.
func (n *Network) ReverseOf(c phit.ConnID) (phit.ConnID, error) {
	info, ok := n.conns[c]
	if !ok {
		return phit.None, fmt.Errorf("core: unknown connection %d", c)
	}
	return info.rev, nil
}

// A TimedAction is one mid-measurement reconfiguration step for RunTimed:
// Do runs when the simulation reaches AtNs nanoseconds into the
// measurement window.
type TimedAction struct {
	AtNs float64
	Do   func(n *Network) error
}

// RunTimed is Run with reconfiguration events inside the measurement
// window: warm up, reset statistics, then alternate engine segments with
// the actions in AtNs order, and report over the whole window. Actions
// that themselves advance simulated time (CloseConnection drains) are
// accounted for — a later action never rewinds the engine.
func (n *Network) RunTimed(warmupNs, measureNs float64, actions []TimedAction) (*Report, error) {
	advance := OpenWindow(n.eng, warmupNs, measureNs, func() {
		for _, c := range n.nis {
			c.ResetStats()
		}
	})
	acts := append([]TimedAction(nil), actions...)
	sort.SliceStable(acts, func(i, j int) bool { return acts[i].AtNs < acts[j].AtNs })
	for _, a := range acts {
		// Actions mutate network state outside the engine; advance has
		// landed any fast-forwarded replay state before each one runs.
		advance(a.AtNs)
		if err := a.Do(n); err != nil {
			return nil, err
		}
	}
	advance(measureNs)
	return n.report(measureNs), nil
}

// CheckReconfigResidue scans the network for leftovers of closed
// connections — the second half of the undisturbed-service proof. A
// correct CloseConnection surrenders every resource the connection held:
// its entry in the slot allocation, its ownership of every link slot
// along both the data and credit paths, and its slots in the live NI
// injection tables. Anything left behind is dead reservation that a
// later admission can never claim (a capacity leak) or, worse, a slot
// the hardware would still fire on (a ghost transmission hazard), so
// each finding is reported as a ReconfigResidue violation.
//
// closed lists every retired id to check — callers capture both the data
// id and its credit channel (via ReverseOf) before closing. The return
// value is the number of violations reported.
func (n *Network) CheckReconfigResidue(closed []phit.ConnID, rep fault.Reporter) int {
	dead := make(map[phit.ConnID]bool, len(closed))
	for _, c := range closed {
		dead[c] = true
	}
	count := 0
	emit := func(component, detail string) {
		count++
		fault.Report(rep, fault.Violation{
			Kind:      fault.ReconfigResidue,
			Component: component,
			Slot:      fault.NoSlot,
			Detail:    detail,
		})
	}

	// Allocation bookkeeping: a closed id must not own an assignment.
	for _, c := range closed {
		if n.Alloc.ByConn[c] != nil {
			emit("alloc", fmt.Sprintf("closed connection %d still holds a slot assignment", c))
		}
	}

	// Link occupancy: no slot of any link may still name a closed id.
	for _, l := range n.Mesh.Links() {
		for s := 0; s < n.Alloc.TableSize; s++ {
			if o := n.Alloc.LinkOwner(l.ID, s); dead[o] {
				emit(fmt.Sprintf("link %s>%s", n.Mesh.Node(l.From).Name, n.Mesh.Node(l.To).Name),
					fmt.Sprintf("closed connection %d still owns slot %d", o, s))
			}
		}
	}

	// Live NI injection tables: the hardware-side schedule must be clear
	// of closed ids too — the allocation could be clean while a stale
	// table entry keeps firing flits.
	for _, nid := range n.Mesh.AllNIs() {
		t := n.InjectionTable(nid)
		if t == nil {
			continue
		}
		for s, o := range t.Slots {
			if dead[o] {
				emit(n.Mesh.Node(nid).Name,
					fmt.Sprintf("closed connection %d still programmed in injection-table slot %d", o, s))
			}
		}
	}
	return count
}
