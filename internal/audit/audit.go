package audit

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/trace"
)

// Options tunes an Auditor without weakening its defaults.
type Options struct {
	// TolerateOversubscription suppresses InjectionRate violations for
	// connections that offer more than their guarantee (used when the
	// scenario *deliberately* oversubscribes, e.g. a hostile-interferer
	// composability run). Oversubscribed connections still lose their
	// bound checks — the analytical bound does not cover them.
	TolerateOversubscription bool
}

const (
	// bucketWords is the injection token-bucket depth: room for the
	// largest transaction a generator offers (16 words,
	// traffic.TxWordsForRate) and a wide scheduling margin.
	bucketWords = 128
	// maxReports caps the violations reported per connection and kind; the
	// per-kind counters keep counting past the cap so the summary stays
	// exact while a pathological run cannot flood the collector.
	maxReports = 8
	// rateMargin relaxes the token-bucket refill rate to absorb rational
	// rate rounding.
	rateMargin = 1.0 + 1e-6
)

// connAudit is the per-connection contract plus running check state.
type connAudit struct {
	id      phit.ConnID
	srcName string
	dstName string

	boundPs       float64 // checked latency ceiling, ps (bound + allowance)
	waitBudgetPs  float64 // source-NI wait past which the source is out of contract
	guaranteeMBps float64

	// Injection token bucket, in words.
	rate   float64 // refill, words per ps
	depth  float64
	tokens float64
	primed bool
	lastPs clock.Time

	unregulated bool // offered load exceeded the guarantee (sticky)
	quarantined bool // reliability layer gave up on this connection

	nextSeq   int64
	injected  int64
	delivered int64
	maxLatPs  clock.Time

	reported map[fault.Kind]int
}

// chanAudit is the per-channel state of the network-side
// injection-regulation check, for data and reverse channels alike: the
// slot quota and revolution of the channel's allocation table, and the
// flit starts counted inside the current revolution.
type chanAudit struct {
	quota        int
	revolutionPs clock.Time
	count        int
	bucket       int64 // revolution index + 1 of count; 0 before the first flit
}

// compAudit is the per-component state of the slot checks. One TDM
// resource is a component (NI, link stage) or a router output port.
type compAudit struct {
	// table is the allocation-side injection table of an NI and ports the
	// link tables of a router's outputs, looked up by component name on
	// the component's first SlotStart or RouterForward; nil = none.
	table    []phit.ConnID
	ports    [][]phit.ConnID
	resolved bool
	// last holds the latest use of each resource of the component, by
	// output port (0 for NIs and link stages), grown as ports are seen.
	last []lastUse
}

type lastUse struct {
	time clock.Time
	conn phit.ConnID
	used bool
}

// maxPorts bounds the router output port an event may name: the header
// layout gives a hop at most 8 bits.
const maxPorts = 1 << 8

// A ContractSource is a built fabric that states its analytical
// contracts: *core.Network and *routerless.Network.
type ContractSource interface {
	Contracts() analysis.ContractSet
}

// An Auditor checks every traced event against the analytical contracts
// of a built network. It implements trace.Sink, and trace.Folder: it
// checks replayed copies of an epoch one by one until one proves that the
// rest repeat its verdicts (Fold).
type Auditor struct {
	rep  fault.Reporter
	bus  *trace.Bus
	opts Options

	// Connection and component ids are small dense integers, so the
	// per-event state lives in slices indexed by them: conns and chans by
	// ConnID, sized by load to the ids the contract set has (an id
	// outside them is an unknown connection); comps by CompID, grown on
	// demand up to the ids the bus has interned.
	conns []*connAudit // nil = no audited word contract (reverse channels)
	chans []chanAudit
	comps []compAudit
	order []phit.ConnID

	// Allocation-side slot tables keyed by component name, resolved
	// lazily per CompID. Deliberately the fabric's allocation, not its
	// live injection tables, so corruption of the latter is caught.
	// routerTables is nil on plesiochronous clocks, whose instants name
	// no common slot.
	allocTables  map[string][]phit.ConnID
	routerTables map[string][][]phit.ConnID

	checkExclusive bool
	flitCyclePs    clock.Time

	total  int64
	byKind map[fault.Kind]int64

	// Fold's scratch: the state before the copy it delivered last. And
	// how many replayed copies Fold was handed, and how many of them it
	// folded rather than delivered.
	fold           foldState
	copies, folded int64
}

// Attach builds an Auditor for the fabric's contracts and subscribes it
// to the bus. The reporter receives every violation (nil = strict
// fail-fast); it should be a collector distinct from any fault-campaign
// collector, so expected campaign violations are never mixed with
// guarantee breaches.
func Attach(src ContractSource, bus *trace.Bus, rep fault.Reporter, opts Options) *Auditor {
	a := &Auditor{rep: rep, bus: bus, opts: opts, byKind: make(map[fault.Kind]int64)}
	a.load(src.Contracts())
	bus.Attach(a)
	return a
}

// Resync refreshes the auditor after a run-time reconfiguration: newly
// admitted connections gain contracts (bound, token bucket, slot quota),
// closed connections lose their slot quotas, and the allocation-side
// tables are retaken so the slot-ownership check enforces the *new*
// schedule. Call it after every Admit/CloseConnection batch; an
// auditor left stale would flag the new owner's legitimate slots as
// ownership violations.
func (a *Auditor) Resync(src ContractSource) {
	a.bus.Drain()
	a.load(src.Contracts())
}

// load (re)builds the auditor's view of a contract set: bounds and token
// buckets for connections it has not met yet, plus the allocation-side
// slot tables and the quotas they derive.
func (a *Auditor) load(set analysis.ContractSet) {
	a.flitCyclePs = clock.Time(phit.FlitWords) * clock.Time(clock.PeriodFromMHz(set.FreqMHz))
	// Plesiochronous clocks make sub-flit-cycle spacing between
	// *different* resources' events legitimate, and their drift
	// stretches the wall-clock spacing of a generator's nominally
	// compliant injections; ownership checks still run in every mode.
	a.checkExclusive = !set.Asynchronous
	margin := rateMargin
	if set.Asynchronous {
		margin += 2 * set.PPM / 1e6
	}
	// The ids the set has: its contracts and every channel, data or
	// reverse, of its tables.
	var high phit.ConnID
	for _, c := range set.Contracts {
		high = max(high, c.Conn)
	}
	for _, table := range set.AllocTables {
		for _, c := range table {
			high = max(high, c)
		}
	}
	a.growConns(high)
	for _, c := range set.Contracts {
		if c.Conn <= phit.None || a.conns[c.Conn] != nil {
			continue // not an id an event can carry a contract under, or one already held
		}
		ca := &connAudit{
			id:            c.Conn,
			srcName:       c.SrcName,
			dstName:       c.DstName,
			guaranteeMBps: c.GuaranteeMBps,
			boundPs:       c.BoundPs,
			waitBudgetPs:  c.WaitBudgetPs,
			rate:          c.GuaranteeMBps * 1e6 / float64(set.WordBytes) / 1e12 * margin,
			depth:         bucketWords,
			reported:      make(map[fault.Kind]int),
		}
		ca.tokens = ca.depth
		a.conns[c.Conn] = ca
		a.order = append(a.order, c.Conn)
	}

	// Slot quotas are rebuilt from scratch: closed connections lose
	// theirs (a flit of a closed connection has no quota to hide under).
	// A channel owning q slots of a table starts at most q flits per
	// revolution of it.
	for c := range a.chans {
		a.chans[c].quota = 0
	}
	for _, table := range set.AllocTables {
		for _, c := range table {
			if c > phit.None {
				a.chans[c].quota++
				a.chans[c].revolutionPs = a.flitCyclePs * clock.Time(len(table))
			}
		}
	}
	a.allocTables, a.routerTables = set.AllocTables, set.RouterTables
	if set.Asynchronous {
		a.routerTables = nil
	}
	// The lazily resolved CompID -> table cache points at the old
	// tables; drop it so the next event re-resolves.
	for c := range a.comps {
		a.comps[c].table, a.comps[c].ports, a.comps[c].resolved = nil, nil, false
	}
}

// growConns makes the per-connection tables addressable up to id.
func (a *Auditor) growConns(id phit.ConnID) {
	if n := int(id) + 1 - len(a.conns); n > 0 {
		a.conns = append(a.conns, make([]*connAudit, n)...)
		a.chans = append(a.chans, make([]chanAudit, n)...)
	}
}

// conn returns the audited contract of an event's connection, nil when
// the id is one the network does not have or a reverse channel.
func (a *Auditor) conn(id phit.ConnID) *connAudit {
	if uint(id) >= uint(len(a.conns)) {
		return nil
	}
	return a.conns[id]
}

// comp returns the slot-check state of an event's component, nil when the
// id is not one the bus has interned.
func (a *Auditor) comp(id trace.CompID) *compAudit {
	if uint(id) >= uint(len(a.comps)) {
		n := a.bus.NumComponents()
		if uint(id) >= uint(n) {
			return nil
		}
		a.comps = append(a.comps, make([]compAudit, n-len(a.comps))...)
	}
	return &a.comps[id]
}

// Deferred implements trace.Deferrable. An auditor that reports to a
// collector checks on the bus's worker: its verdicts are read through
// Violations, ByKind and WriteSummary, which drain the bus first, and its
// collector after Run, which drains too. A strict auditor (nil reporter)
// stays inline, so its panic stops the run at the event that broke the
// contract.
func (a *Auditor) Deferred() bool { return a.rep != nil }

// Event implements trace.Sink.
func (a *Auditor) Event(ev trace.Event) {
	switch ev.Kind {
	case trace.Inject:
		a.onInject(ev)
	case trace.Send:
		a.onSend(ev)
	case trace.Eject:
		a.onEject(ev)
	case trace.SlotStart:
		a.onSlotStart(ev)
		a.onActivity(ev, 0)
	case trace.RouterForward:
		a.onForward(ev)
		a.onActivity(ev, ev.Arg)
	case trace.LinkForward:
		a.onActivity(ev, 0)
	case trace.Quarantine:
		if ca := a.conn(ev.Conn); ca != nil {
			ca.quarantined = true
		}
	}
}

func (a *Auditor) onInject(ev trace.Event) {
	ca := a.conn(ev.Conn)
	if ca == nil {
		return
	}
	ca.injected++
	if !ca.primed {
		ca.primed = true
		ca.lastPs = ev.Time
	}
	ca.tokens += float64(ev.Time-ca.lastPs) * ca.rate
	ca.lastPs = ev.Time
	if ca.tokens > ca.depth {
		ca.tokens = ca.depth
	}
	ca.tokens--
	if ca.tokens < 0 && !ca.unregulated {
		ca.unregulated = true
		if !a.opts.TolerateOversubscription {
			a.report(ca, fault.Violation{
				Kind:      fault.InjectionRate,
				Component: a.bus.ComponentName(ev.Comp),
				Time:      ev.Time,
				Slot:      fault.NoSlot,
				Detail: fmt.Sprintf("connection %d offers more than its %.1f Mbyte/s guarantee (word %d overdraws the allocation bucket); its bounds are no longer checked",
					ca.id, ca.guaranteeMBps, ev.Seq),
			})
		}
	}
}

// onSend checks a word's dwell time at the source NI. A word of a
// compliant connection never waits longer than the bound minus the
// deterministic transit; a longer wait means the queue ahead of it could
// only have been offered out of contract, so the connection's bound
// checks are withdrawn (the paper's oversubscriber only slows itself
// down) and the breach of contract is reported once. Every e2e bound
// violation caused by source-side backlog trips this check at the word's
// Send, before its Eject — so it surfaces as injection-rate, while a
// delay inside the fabric still surfaces as latency-bound.
func (a *Auditor) onSend(ev trace.Event) {
	ca := a.conn(ev.Conn)
	if ca == nil || ca.unregulated || ca.quarantined {
		return
	}
	if wait := float64(ev.Time - ev.Ref); wait > ca.waitBudgetPs {
		ca.unregulated = true
		if !a.opts.TolerateOversubscription {
			a.report(ca, fault.Violation{
				Kind:      fault.InjectionRate,
				Component: a.bus.ComponentName(ev.Comp),
				Time:      ev.Time,
				Slot:      fault.NoSlot,
				Detail: fmt.Sprintf("connection %d word %d waited %.1f ns at the source NI (contract allows %.1f ns): offered load exceeds the allocation; bounds no longer checked",
					ca.id, ev.Seq, wait/1e3, ca.waitBudgetPs/1e3),
			})
		}
	}
}

func (a *Auditor) onEject(ev trace.Event) {
	ca := a.conn(ev.Conn)
	if ca == nil {
		return
	}
	ca.delivered++
	if ev.Seq != ca.nextSeq {
		a.report(ca, fault.Violation{
			Kind:      fault.DeliveryOrder,
			Component: a.bus.ComponentName(ev.Comp),
			Time:      ev.Time,
			Slot:      fault.NoSlot,
			Detail: fmt.Sprintf("connection %d delivered word %d, expected %d",
				ca.id, ev.Seq, ca.nextSeq),
		})
	}
	ca.nextSeq = ev.Seq + 1
	lat := ev.Time - ev.Ref
	if lat > ca.maxLatPs {
		ca.maxLatPs = lat
	}
	if float64(lat) > ca.boundPs && !ca.unregulated && !ca.quarantined {
		a.report(ca, fault.Violation{
			Kind:      fault.LatencyBound,
			Component: a.bus.ComponentName(ev.Comp),
			Time:      ev.Time,
			Slot:      fault.NoSlot,
			Detail: fmt.Sprintf("connection %d word %d took %.1f ns, analytical worst case %.1f ns",
				ca.id, ev.Seq, float64(lat)/1e3, ca.boundPs/1e3),
		})
	}
}

// tables returns the slot-check state of an event's component with its
// allocation tables resolved, nil when the id is not one the bus has
// interned.
func (a *Auditor) tables(id trace.CompID) *compAudit {
	cp := a.comp(id)
	if cp != nil && !cp.resolved {
		name := a.bus.ComponentName(id)
		cp.table, cp.ports, cp.resolved = a.allocTables[name], a.routerTables[name], true
	}
	return cp
}

// owns checks that the allocation gives the event's connection the slot
// of table that the event used; slot is taken modulo the table size and
// returned so.
func (a *Auditor) owns(ev trace.Event, table []phit.ConnID, slot int64) int {
	s := int(slot % int64(len(table)))
	if owner := table[s]; owner != ev.Conn {
		used := "sent"
		if ev.Kind == trace.RouterForward {
			used = fmt.Sprintf("left output %d", ev.Arg)
		}
		a.report(a.conn(ev.Conn), fault.Violation{
			Kind:      fault.SlotOwnership,
			Component: a.bus.ComponentName(ev.Comp),
			Time:      ev.Time,
			Slot:      s,
			Detail: fmt.Sprintf("connection %d %s in a slot the allocation assigns to %s",
				ev.Conn, used, ownerName(owner)),
		})
	}
	return s
}

// onForward checks a flit a router switched against the allocation of the
// link it left on. Its slot is the flit cycle of the instant: every clock
// of a synchronous or mesochronous fabric has its edge 0 within the first
// period, so a flit driven at edge e lies in flit cycle e/3.
func (a *Auditor) onForward(ev trace.Event) {
	cp := a.tables(ev.Comp)
	if cp == nil || uint64(ev.Arg) >= uint64(len(cp.ports)) || ev.Time < 0 {
		return // no router, no such output, or an instant before time zero
	}
	if table := cp.ports[ev.Arg]; len(table) > 0 {
		a.owns(ev, table, int64(ev.Time/a.flitCyclePs))
	}
}

func (a *Auditor) onSlotStart(ev trace.Event) {
	if ev.Slot < 0 {
		return
	}
	cp := a.tables(ev.Comp)
	if cp == nil || len(cp.table) == 0 {
		return
	}
	slot := a.owns(ev, cp.table, int64(ev.Slot))

	// Network-side injection regulation: a connection owning q slots can
	// start at most q flits per table revolution; one extra is tolerated
	// for bucket-boundary alignment (and plesiochronous drift).
	if uint(ev.Conn) >= uint(len(a.chans)) {
		return
	}
	w := &a.chans[ev.Conn]
	q := w.quota
	if q == 0 {
		return
	}
	if b := int64(ev.Time/w.revolutionPs) + 1; b != w.bucket {
		w.bucket, w.count = b, 0
	}
	w.count++
	if w.count > q+1 {
		a.report(a.conn(ev.Conn), fault.Violation{
			Kind:      fault.InjectionRate,
			Component: a.bus.ComponentName(ev.Comp),
			Time:      ev.Time,
			Slot:      slot,
			Detail: fmt.Sprintf("connection %d started %d flits in one table revolution but owns %d slots",
				ev.Conn, w.count, q),
		})
	}
}

func ownerName(c phit.ConnID) string {
	if c == phit.None {
		return "no one"
	}
	return fmt.Sprintf("connection %d", c)
}

// onActivity enforces per-resource slot exclusivity: two different
// connections may not use the same NI, router output port, or link stage
// within one flit cycle (the TDM slot is reserved end to end).
func (a *Auditor) onActivity(ev trace.Event, port int64) {
	if !a.checkExclusive {
		return
	}
	cp := a.comp(ev.Comp)
	if cp == nil || uint64(port) >= maxPorts {
		return // no such resource
	}
	if int(port) >= len(cp.last) {
		cp.last = append(cp.last, make([]lastUse, int(port)+1-len(cp.last))...)
	}
	prev := cp.last[port]
	cp.last[port] = lastUse{time: ev.Time, conn: ev.Conn, used: true}
	if !prev.used || prev.conn == ev.Conn {
		return
	}
	if ev.Time-prev.time < a.flitCyclePs-1 {
		a.report(a.conn(ev.Conn), fault.Violation{
			Kind:      fault.SlotContention,
			Component: a.bus.ComponentName(ev.Comp),
			Time:      ev.Time,
			Slot:      int(ev.Slot),
			Detail: fmt.Sprintf("connections %d and %d used the same resource %.1f ns apart (flit cycle %.1f ns)",
				prev.conn, ev.Conn, float64(ev.Time-prev.time)/1e3, float64(a.flitCyclePs)/1e3),
		})
	}
}

// report counts v and forwards it to the reporter unless the per-conn,
// per-kind cap is exhausted. ca may be nil (reverse channels have no
// audited word contract); the cap then does not apply.
func (a *Auditor) report(ca *connAudit, v fault.Violation) {
	a.total++
	a.byKind[v.Kind]++
	if ca != nil {
		if ca.reported[v.Kind] >= maxReports {
			return
		}
		ca.reported[v.Kind]++
	}
	fault.Report(a.rep, v)
}

// Violations returns the total number of violations detected (including
// any suppressed past the per-connection reporting cap).
func (a *Auditor) Violations() int64 {
	a.bus.Drain()
	return a.total
}

// ByKind returns the per-kind violation totals.
func (a *Auditor) ByKind() map[fault.Kind]int64 {
	a.bus.Drain()
	out := make(map[fault.Kind]int64, len(a.byKind))
	for k, n := range a.byKind {
		out[k] = n
	}
	return out
}

// WriteSummary renders the per-connection audit verdicts and the
// violation totals, one line per connection, deterministically ordered.
func (a *Auditor) WriteSummary(w io.Writer) {
	a.bus.Drain()
	fmt.Fprintf(w, "audit: %d connections, %d violations\n", len(a.order), a.total)
	fmt.Fprintf(w, "%6s %12s %10s %9s %9s %8s  %s\n",
		"conn", "route", "delivered", "maxlat", "bound", "margin", "verdict")
	for _, id := range a.order {
		ca := a.conns[id]
		verdict := "ok"
		switch {
		case ca.quarantined:
			verdict = "quarantined"
		case ca.unregulated:
			verdict = "oversubscribed"
		case len(ca.reported) > 0:
			verdict = "VIOLATED"
		}
		maxNs := float64(ca.maxLatPs) / 1e3
		boundNs := ca.boundPs / 1e3
		fmt.Fprintf(w, "%6d %12s %10d %8.1fn %8.1fn %7.1f%%  %s\n",
			id, ca.srcName+">"+ca.dstName, ca.delivered, maxNs, boundNs,
			100*(1-maxNs/boundNs), verdict)
	}
	if a.total > 0 {
		kinds := make([]fault.Kind, 0, len(a.byKind))
		for k := range a.byKind {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
		for _, k := range kinds {
			fmt.Fprintf(w, "audit: %8d x %s\n", a.byKind[k], k)
		}
	}
}
