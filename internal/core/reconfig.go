package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/clock"
	"repro/internal/ni"
	"repro/internal/phit"
	"repro/internal/route"
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

// Typed admission-rejection causes. Every error returned by PlanAdmission
// and OpenConnection wraps exactly one of these, so callers (the
// internal/admission package, the CLIs) can classify a rejection without
// parsing messages.
var (
	// ErrModeUnsupported: the network mode cannot be reconfigured at run
	// time (asynchronous wrappers index slots by token count).
	ErrModeUnsupported = errors.New("mode does not support run-time reconfiguration")
	// ErrDuplicate: the connection id is already open, as a data
	// connection or as one's credit channel, or was and is retired.
	ErrDuplicate = errors.New("connection already open")
	// ErrUnknownEndpoint: an endpoint IP is not in the use case.
	ErrUnknownEndpoint = errors.New("unknown endpoint")
	// ErrSharedNI: both endpoints sit on one NI (local traffic bypasses
	// the NoC).
	ErrSharedNI = errors.New("endpoints share an NI")
	// ErrNoRoute: no candidate route exists (or none fits the header's
	// path field, or every one crosses an avoided link).
	ErrNoRoute = errors.New("no usable route")
	// ErrInfeasible: the requested bandwidth or latency cannot be met on
	// this network even with an empty slot table (rate above link
	// capacity, budget below the fixed path delay).
	ErrInfeasible = errors.New("requirement infeasible")
	// ErrNoSlots: routing and sizing succeeded but the live table has no
	// free-slot placement (the underlying *slots.PlacementError is in the
	// chain).
	ErrNoSlots = errors.New("no free slot placement")
	// ErrQueueExhausted: an involved NI has no queue ids left.
	ErrQueueExhausted = errors.New("NI queue ids exhausted")
)

// An AdmissionPlan is the reusable, side-effect-free part of admitting a
// connection: routes found, requirements sized, reverse-channel id
// chosen, slot requests built. It mutates nothing; OpenConnection applies
// it to the live allocation, admission.Probe applies it to a clone.
type AdmissionPlan struct {
	Conn spec.Connection
	// Rev is the credit-channel connection id the admission would use
	// (one above everything currently open).
	Rev phit.ConnID
	// Requests are the data and reverse slot requests, ready for
	// slots.AllocateInto.
	Requests []slots.Request
	// Worst is the largest-shift forward candidate, the path the sizing
	// covered.
	Worst *route.Path

	routed routedConn
}

// PlanAdmission routes and sizes a prospective connection against the
// live network without changing anything. Candidate paths crossing any
// link in avoid are discarded (the self-healing reroute passes the
// quarantined path's links here). The returned error wraps one of the
// Err* causes above.
func (n *Network) PlanAdmission(c spec.Connection, avoid []topology.LinkID) (*AdmissionPlan, error) {
	if n.Cfg.Mode == Asynchronous {
		return nil, fmt.Errorf("core: connection %d: %w (slot counters are token-indexed)", c.ID, ErrModeUnsupported)
	}
	// Credit channels are connections too: their ids live in the allocation
	// and the NIs beside the data connections'.
	if n.Alloc.ByConn[c.ID] != nil {
		return nil, fmt.Errorf("core: %w: connection %d", ErrDuplicate, c.ID)
	}
	if n.retired[c.ID] {
		return nil, fmt.Errorf("core: %w: connection id %d was closed and its queue RAM is still registered; re-admission needs a fresh id (FreshConnID)", ErrDuplicate, c.ID)
	}
	rc, err := routeOne(n.Mesh, n.Spec, n.Cfg, c, avoid, new(route.Arena))
	if err != nil {
		return nil, err
	}
	// New id for the reverse channel: above everything *ever* used, not
	// just everything live — a closed connection's queue ids stay
	// registered in the NI, so id reuse would collide there.
	rev := max(n.idHigh, c.ID) + 1
	reqs, err := requestsFor(n.Cfg, c, rc, rev, n.Cfg.TableSize)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
	}
	// Queue ids are consumed only on success, but a plan that could never
	// be applied must not report admissible.
	if _, _, err := n.queueIDs(rc.srcNI, rc.dstNI); err != nil {
		return nil, fmt.Errorf("core: connection %d: %w", c.ID, err)
	}
	return &AdmissionPlan{Conn: c, Rev: rev, Requests: reqs[:], Worst: rc.worst, routed: rc}, nil
}

// A TrialOutcome summarises the guarantees a trial placement would carry
// — what admission control checks against the request before committing.
type TrialOutcome struct {
	GuaranteeMBps  float64
	LatencyBoundNs float64
	DataSlots      int
	RevSlots       int
	PathHops       int
}

// TrialOutcome computes the analytical bounds of a plan placed into a
// trial allocation (typically a Clone of the live one populated via
// slots.AllocateInto). The trial allocation is read, never written.
func (n *Network) TrialOutcome(plan *AdmissionPlan, trial *slots.Allocation) TrialOutcome {
	info := deriveInfo(n.Cfg, plan.Conn, plan.routed, plan.Rev, trial)
	return TrialOutcome{
		GuaranteeMBps:  info.guaranteeMBps,
		LatencyBoundNs: info.boundNs,
		DataSlots:      len(info.slotSet),
		RevSlots:       len(info.revSlots),
		PathHops:       info.path.Hops(),
	}
}

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

// OpenConnection admits a new guaranteed-service connection at run time:
// it is routed, sized from its requirements, allocated into the *free*
// slots of the live allocation, and its traffic generator started. The
// returned error leaves the network untouched (admission control: a
// connection that does not fit is simply rejected, exactly as in [16])
// and wraps one of the typed Err* causes.
func (n *Network) OpenConnection(c spec.Connection) error {
	return n.OpenConnectionAvoiding(c, nil)
}

// OpenConnectionAvoiding is OpenConnection with an avoid set: no slot of
// the new connection (data or credit direction) will ride a path crossing
// any of the given links. The self-healing reroute uses it to steer a
// re-admitted connection clear of its quarantined path.
func (n *Network) OpenConnectionAvoiding(c spec.Connection, avoid []topology.LinkID) error {
	plan, err := n.PlanAdmission(c, avoid)
	if err != nil {
		return err
	}
	n.eng.Sync()
	// release takes back whatever the admission claimed (the plan's ids
	// were free when it was made), so a rejection at any later step leaves
	// the slot table as it was.
	release := func() {
		for _, r := range plan.Requests {
			if n.Alloc.ByConn[r.Conn] != nil {
				n.Alloc.Release(r.Conn)
			}
		}
	}
	if err := slots.AllocateInto(n.Alloc, plan.Requests); err != nil {
		release() // the data channel may have landed before its credit channel failed
		return fmt.Errorf("core: admission of connection %d failed: %w: %w", c.ID, ErrNoSlots, err)
	}
	info := deriveInfo(n.Cfg, c, plan.routed, plan.Rev, n.Alloc)
	if err := n.attach(info); err != nil {
		release()
		return err
	}
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

// TakeQuarantined drains the queue of quarantine transitions recorded
// since the last call. Callers (admission.Healer) invoke it between
// engine runs and react by closing and re-admitting the victims.
func (n *Network) TakeQuarantined() []QuarantineEvent {
	out := n.pendingQuar
	n.pendingQuar = nil
	return out
}

// ConnectionLinks returns every link a data connection's slots ride —
// both the data direction and its credit channel, across all per-slot
// paths — ascending and deduplicated. The self-healing reroute feeds the
// router-to-router subset back into OpenConnectionAvoiding.
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
