package audit

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/reliable"
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
// slot quota and the flit starts counted inside the current table
// revolution.
type chanAudit struct {
	quota  int
	count  int
	bucket int64 // revolution index + 1 of count; 0 before the first flit
}

// compAudit is the per-component state of the slot checks. One TDM
// resource is a component (NI, link stage) or a router output port.
type compAudit struct {
	// table is the allocation-side injection table of an NI, looked up by
	// component name on the component's first SlotStart; nil = none.
	table    []phit.ConnID
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

// An Auditor checks every traced event against the analytical contracts
// of a built network. It implements trace.Sink.
type Auditor struct {
	rep  fault.Reporter
	bus  *trace.Bus
	opts Options

	// Connection and component ids are small dense integers, so the
	// per-event state lives in slices indexed by them: conns and chans by
	// ConnID, sized by snapshot to the ids the network has (an id outside
	// them is an unknown connection); comps by CompID, grown on demand up
	// to the ids the bus has interned.
	conns []*connAudit // nil = no audited word contract (reverse channels)
	chans []chanAudit
	comps []compAudit
	order []phit.ConnID

	// Allocation-side injection tables keyed by NI component name,
	// resolved lazily per CompID. Deliberately snapshotted from
	// Network.Alloc, not from the live NI tables, so corruption of the
	// latter is caught.
	allocTables map[string][]phit.ConnID

	revolutionPs   clock.Time
	checkExclusive bool
	flitCyclePs    clock.Time

	total  int64
	byKind map[fault.Kind]int64
}

// Attach builds an Auditor for the network and subscribes it to the bus.
// The reporter receives every violation (nil = strict fail-fast); it
// should be a collector distinct from any fault-campaign collector, so
// expected campaign violations are never mixed with guarantee breaches.
func Attach(n *core.Network, bus *trace.Bus, rep fault.Reporter, opts Options) *Auditor {
	// Plesiochronous clocks make sub-flit-cycle spacing between
	// *different* resources' events legitimate; ownership checks still
	// run in every mode.
	a := newAuditor(bus, rep, opts, n.Cfg.FreqMHz, n.Cfg.Mode != core.Asynchronous)
	a.snapshot(n)
	bus.Attach(a)
	return a
}

// newAuditor returns an auditor with no contracts yet.
func newAuditor(bus *trace.Bus, rep fault.Reporter, opts Options, freqMHz float64, checkExclusive bool) *Auditor {
	return &Auditor{
		rep:            rep,
		bus:            bus,
		opts:           opts,
		allocTables:    make(map[string][]phit.ConnID),
		checkExclusive: checkExclusive,
		flitCyclePs:    clock.Time(phit.FlitWords) * clock.Time(clock.PeriodFromMHz(freqMHz)),
		byKind:         make(map[fault.Kind]int64),
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

// snapshot (re)builds the auditor's view of the network's contracts:
// per-connection bounds and token buckets for connections it has not met
// yet, plus the allocation-side slot tables and quotas. Attach calls it
// once; Resync calls it again after run-time reconfiguration.
func (a *Auditor) snapshot(n *core.Network) {
	allowancePs := recoveryAllowancePs(n)
	// Plesiochronous drift stretches the wall-clock spacing of a
	// generator's nominally compliant injections.
	margin := rateMargin
	if n.Cfg.Mode == core.Asynchronous {
		margin += 2 * n.Cfg.PPM / 1e6
	}
	// The ids the network has: its data connections and every channel,
	// data or reverse, of its allocation.
	ids := n.Connections()
	var high phit.ConnID
	if len(ids) > 0 {
		high = ids[len(ids)-1]
	}
	for c := range n.Alloc.ByConn {
		high = max(high, c)
	}
	a.growConns(high)
	for _, id := range ids {
		if id <= phit.None || a.conns[id] != nil {
			continue
		}
		info, err := n.Info(id)
		if err != nil {
			continue
		}
		ca := &connAudit{
			id:            id,
			srcName:       n.Mesh.Node(info.SrcNI).Name,
			dstName:       n.Mesh.Node(info.DstNI).Name,
			guaranteeMBps: info.GuaranteedMBps,
			boundPs:       info.BoundNs*1e3 + allowancePs,
			waitBudgetPs:  analysis.SourceWaitBudgetNs(info.BoundNs, info.TotalShift, n.Cfg.FreqMHz)*1e3 + allowancePs,
			rate:          info.GuaranteedMBps * 1e6 / float64(n.Cfg.WordBytes) / 1e12 * margin,
			depth:         bucketWords,
			nextSeq:       0,
			reported:      make(map[fault.Kind]int),
		}
		ca.tokens = ca.depth
		a.conns[id] = ca
		a.order = append(a.order, id)
	}

	for _, nid := range n.Mesh.NIs() {
		name := n.Mesh.Node(nid).Name
		a.allocTables[name] = append([]phit.ConnID(nil), n.Alloc.NITable(nid).Slots...)
	}
	// Slot quotas are rebuilt from scratch: closed connections lose
	// theirs (a flit of a closed connection has no quota to hide under).
	for c := range a.chans {
		a.chans[c].quota = 0
	}
	for c, as := range n.Alloc.ByConn {
		if c > phit.None {
			a.chans[c].quota = len(as.Slots)
		}
	}
	a.revolutionPs = a.flitCyclePs * clock.Time(n.Alloc.TableSize)
}

// Resync refreshes the auditor after a run-time reconfiguration: newly
// admitted connections gain contracts (bound, token bucket, slot quota),
// closed connections lose their slot quotas, and the allocation-side
// injection-table snapshot — deliberately held apart from the live NI
// tables — is retaken so the slot-ownership check enforces the *new*
// schedule. Call it after every Admit/CloseConnection batch; an
// auditor left stale would flag the new owner's legitimate slots as
// ownership violations.
func (a *Auditor) Resync(n *core.Network) {
	a.snapshot(n)
	// The lazily resolved CompID -> table cache points at the old
	// snapshots; drop it so the next event re-resolves.
	for c := range a.comps {
		a.comps[c].table, a.comps[c].resolved = nil, false
	}
}

// recoveryAllowancePs bounds the extra delivery delay the reliability
// shell may legitimately add before quarantine: every go-back-N round
// waits one timeout, the timeout doubles per silent round up to the
// backoff cap, and the budget bounds the rounds. Without Reliable the
// allowance is zero and the analytical bound is checked exactly.
func recoveryAllowancePs(n *core.Network) float64 {
	if !n.Cfg.Reliable {
		return 0
	}
	budget := n.Cfg.RetryBudget
	if budget <= 0 {
		budget = reliable.DefaultRetryBudget
	}
	var worstBound float64
	for _, id := range n.Connections() {
		if tx, ok := n.ReliableTxStats(id); ok {
			timeoutPs := float64(tx.Timeout)
			backoff, sum := 1.0, 0.0
			for r := 0; r <= budget; r++ {
				sum += backoff
				if backoff < float64(reliable.BackoffCap) {
					backoff *= 2
				}
			}
			if w := timeoutPs * sum; w > worstBound {
				worstBound = w
			}
		}
	}
	return worstBound
}

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

func (a *Auditor) onSlotStart(ev trace.Event) {
	if ev.Slot < 0 {
		return
	}
	cp := a.comp(ev.Comp)
	if cp == nil {
		return
	}
	if !cp.resolved {
		cp.table, cp.resolved = a.allocTables[a.bus.ComponentName(ev.Comp)], true
	}
	table := cp.table
	if table == nil {
		return
	}
	slot := int(ev.Slot) % len(table)
	if owner := table[slot]; owner != ev.Conn {
		a.report(a.conn(ev.Conn), fault.Violation{
			Kind:      fault.SlotOwnership,
			Component: a.bus.ComponentName(ev.Comp),
			Time:      ev.Time,
			Slot:      slot,
			Detail: fmt.Sprintf("connection %d sent in a slot the allocation assigns to %s",
				ev.Conn, ownerName(owner)),
		})
	}

	// Network-side injection regulation: a connection owning q slots can
	// start at most q flits per table revolution; one extra is tolerated
	// for bucket-boundary alignment (and plesiochronous drift).
	if uint(ev.Conn) >= uint(len(a.chans)) || a.revolutionPs == 0 {
		return
	}
	w := &a.chans[ev.Conn]
	q := w.quota
	if q == 0 {
		return
	}
	if b := int64(ev.Time/a.revolutionPs) + 1; b != w.bucket {
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
func (a *Auditor) Violations() int64 { return a.total }

// ByKind returns the per-kind violation totals.
func (a *Auditor) ByKind() map[fault.Kind]int64 {
	out := make(map[fault.Kind]int64, len(a.byKind))
	for k, n := range a.byKind {
		out[k] = n
	}
	return out
}

// WriteSummary renders the per-connection audit verdicts and the
// violation totals, one line per connection, deterministically ordered.
func (a *Auditor) WriteSummary(w io.Writer) {
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
