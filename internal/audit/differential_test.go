package audit

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/reliable"
	"repro/internal/trace"
)

// refAuditor is the auditor as it was before its tables became slices: the
// same checks over map[phit.ConnID], map[trace.CompID] and map[activity]
// state. It is the oracle of the differential tests and must not be tidied.
type refAuditor struct {
	rep  fault.Reporter
	bus  *trace.Bus
	opts Options

	conns map[phit.ConnID]*connAudit
	order []phit.ConnID

	allocTables map[string][]phit.ConnID
	ownership   map[trace.CompID][]phit.ConnID

	slotQuota    map[phit.ConnID]int
	flitWin      map[phit.ConnID]*refFlitWindow
	revolutionPs clock.Time

	last           map[refActivity]refLastUse
	checkExclusive bool
	flitCyclePs    clock.Time

	total  int64
	byKind map[fault.Kind]int64
}

type refFlitWindow struct {
	bucket int64
	count  int
}

type refActivity struct {
	comp trace.CompID
	port int64
}

type refLastUse struct {
	time clock.Time
	conn phit.ConnID
}

// refAttach is the old Attach, minus subscribing to the bus: the tests feed
// the reference a recorded stream.
func refAttach(n *core.Network, bus *trace.Bus, rep fault.Reporter, opts Options) *refAuditor {
	a := &refAuditor{
		rep:  rep,
		bus:  bus,
		opts: opts,

		conns:          make(map[phit.ConnID]*connAudit),
		allocTables:    make(map[string][]phit.ConnID),
		ownership:      make(map[trace.CompID][]phit.ConnID),
		slotQuota:      make(map[phit.ConnID]int),
		flitWin:        make(map[phit.ConnID]*refFlitWindow),
		last:           make(map[refActivity]refLastUse),
		checkExclusive: n.Cfg.Mode != core.Asynchronous,
		flitCyclePs:    clock.Time(phit.FlitWords) * clock.Time(clock.PeriodFromMHz(n.Cfg.FreqMHz)),
		byKind:         make(map[fault.Kind]int64),
	}
	a.snapshot(n)
	return a
}

func (a *refAuditor) snapshot(n *core.Network) {
	allowancePs := refRecoveryAllowancePs(n)
	rateMargin := 1.0 + 1e-6
	if n.Cfg.Mode == core.Asynchronous {
		rateMargin += 2 * n.Cfg.PPM / 1e6
	}
	for _, id := range n.Connections() {
		if a.conns[id] != nil {
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
			rate:          info.GuaranteedMBps * 1e6 / float64(n.Cfg.WordBytes) / 1e12 * rateMargin,
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
	a.slotQuota = make(map[phit.ConnID]int, len(n.Alloc.ByConn))
	for c, as := range n.Alloc.ByConn {
		a.slotQuota[c] = len(as.Slots)
	}
	a.revolutionPs = a.flitCyclePs * clock.Time(n.Alloc.TableSize)
}

// refRecoveryAllowancePs is the reliability shell's recovery allowance
// as the old auditor derived it from the network.
func refRecoveryAllowancePs(n *core.Network) float64 {
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

func (a *refAuditor) Resync(n *core.Network) {
	a.snapshot(n)
	a.ownership = make(map[trace.CompID][]phit.ConnID)
}

func (a *refAuditor) Event(ev trace.Event) {
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
		if ca := a.conns[ev.Conn]; ca != nil {
			ca.quarantined = true
		}
	}
}

func (a *refAuditor) onInject(ev trace.Event) {
	ca := a.conns[ev.Conn]
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

func (a *refAuditor) onSend(ev trace.Event) {
	ca := a.conns[ev.Conn]
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

func (a *refAuditor) onEject(ev trace.Event) {
	ca := a.conns[ev.Conn]
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

func (a *refAuditor) onSlotStart(ev trace.Event) {
	if ev.Slot < 0 {
		return
	}
	table, ok := a.ownership[ev.Comp]
	if !ok {
		table = a.allocTables[a.bus.ComponentName(ev.Comp)]
		a.ownership[ev.Comp] = table
	}
	if table == nil {
		return
	}
	slot := int(ev.Slot) % len(table)
	if owner := table[slot]; owner != ev.Conn {
		a.report(a.conns[ev.Conn], fault.Violation{
			Kind:      fault.SlotOwnership,
			Component: a.bus.ComponentName(ev.Comp),
			Time:      ev.Time,
			Slot:      slot,
			Detail: fmt.Sprintf("connection %d sent in a slot the allocation assigns to %s",
				ev.Conn, ownerName(owner)),
		})
	}
	q := a.slotQuota[ev.Conn]
	if q == 0 || a.revolutionPs == 0 {
		return
	}
	w := a.flitWin[ev.Conn]
	if w == nil {
		w = &refFlitWindow{bucket: -1}
		a.flitWin[ev.Conn] = w
	}
	if b := int64(ev.Time / a.revolutionPs); b != w.bucket {
		w.bucket, w.count = b, 0
	}
	w.count++
	if w.count > q+1 {
		a.report(a.conns[ev.Conn], fault.Violation{
			Kind:      fault.InjectionRate,
			Component: a.bus.ComponentName(ev.Comp),
			Time:      ev.Time,
			Slot:      slot,
			Detail: fmt.Sprintf("connection %d started %d flits in one table revolution but owns %d slots",
				ev.Conn, w.count, q),
		})
	}
}

func (a *refAuditor) onActivity(ev trace.Event, port int64) {
	if !a.checkExclusive {
		return
	}
	key := refActivity{comp: ev.Comp, port: port}
	prev, ok := a.last[key]
	a.last[key] = refLastUse{time: ev.Time, conn: ev.Conn}
	if !ok || prev.conn == ev.Conn {
		return
	}
	if ev.Time-prev.time < a.flitCyclePs-1 {
		a.report(a.conns[ev.Conn], fault.Violation{
			Kind:      fault.SlotContention,
			Component: a.bus.ComponentName(ev.Comp),
			Time:      ev.Time,
			Slot:      int(ev.Slot),
			Detail: fmt.Sprintf("connections %d and %d used the same resource %.1f ns apart (flit cycle %.1f ns)",
				prev.conn, ev.Conn, float64(ev.Time-prev.time)/1e3, float64(a.flitCyclePs)/1e3),
		})
	}
}

func (a *refAuditor) report(ca *connAudit, v fault.Violation) {
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

func (a *refAuditor) WriteSummary(w io.Writer) {
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

// A recorder keeps the event stream of a run.
type recorder struct{ evs []trace.Event }

func (r *recorder) Event(ev trace.Event) { r.evs = append(r.evs, ev) }

// beforeRouterTables states a network's contracts without the router
// output tables: the reference has no router-output ownership check, which
// TestAuditorMatchesProbes (internal/core) holds to the probes instead.
type beforeRouterTables struct{ n *core.Network }

func (b beforeRouterTables) Contracts() analysis.ContractSet {
	set := b.n.Contracts()
	set.RouterTables = nil
	return set
}

// sameVerdict fails unless the auditor and the reference rendered the same
// summary bytes and reported the same violations in the same order.
func sameVerdict(t *testing.T, a *Auditor, aCol *fault.Collector, ref *refAuditor, refCol *fault.Collector) {
	t.Helper()
	var got, want bytes.Buffer
	a.WriteSummary(&got)
	ref.WriteSummary(&want)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("summary:\n%s\nreference:\n%s", got.String(), want.String())
	}
	gv, wv := aCol.Violations(), refCol.Violations()
	if len(gv) != len(wv) || aCol.Total() != refCol.Total() {
		t.Fatalf("%d violations reported (%d kept), reference %d (%d kept)", aCol.Total(), len(gv), refCol.Total(), len(wv))
	}
	for i := range wv {
		if gv[i].String() != wv[i].String() {
			t.Fatalf("violation %d: %s\nreference: %s", i, gv[i], wv[i])
		}
	}
}

// TestDenseTablesMatchMapReference records the event stream of one fault
// campaign on a mesochronous network — a corrupted injection table, an
// oversubscribing source, clock period steps, stretched FIFOs, duplicated and
// dropped flits — that trips every violation kind the auditor has, and feeds
// it to the map-based reference: summaries and violations must be equal to
// the byte.
func TestDenseTablesMatchMapReference(t *testing.T) {
	n, fabric := buildNet(t, core.Mesochronous)
	bus := trace.NewBus()
	n.AttachTracer(bus)
	rec := &recorder{}
	bus.Attach(rec)
	aCol, refCol := fault.NewCollector(), fault.NewCollector()
	aCol.SetKeep(1 << 20)
	refCol.SetKeep(1 << 20)
	a := Attach(beforeRouterTables{n}, bus, aCol, Options{})
	ref := refAttach(n, bus, refCol, Options{})

	plan, err := fault.ParseSpec("period@3000:clk.R0:-700;period@9000:clk.R0:700;"+
		"delay@12000:l0.R0:300000;delay@12000:l1.R1:300000;"+
		"dup@5000:l0.R0.0>R1.0:6;drop@7000:l1.R1.0>R0.0:6;random:6", 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.NewCampaign(plan, fabric).Arm(n.Engine(), n.FaultTargets()); err != nil {
		t.Fatal(err)
	}
	conns := n.Connections()
	n.NIOf(mustInfo(t, n, conns[0]).SrcNI).CorruptSlotForTest(conns[0])
	n.Generator(conns[1]).SetRateMBps(mustInfo(t, n, conns[1]).RequiredMBps*8, 4)
	n.Run(0, 30000)

	for _, ev := range rec.evs {
		ref.Event(ev)
	}
	for _, k := range []fault.Kind{fault.SlotOwnership, fault.SlotContention, fault.DeliveryOrder, fault.LatencyBound, fault.InjectionRate} {
		if ref.byKind[k] == 0 {
			t.Errorf("the campaign never tripped %v (%v)", k, ref.byKind)
		}
	}
	sameVerdict(t, a, aCol, ref, refCol)
}

// TestResyncMatchesMapReference does the same across a reconfiguration: a
// connection is closed and another admitted mid-run, both auditors resync,
// and the new schedule is enforced identically.
func TestResyncMatchesMapReference(t *testing.T) {
	n, _ := buildNet(t, core.Synchronous)
	bus := trace.NewBus()
	n.AttachTracer(bus)
	rec := &recorder{}
	bus.Attach(rec)
	aCol, refCol := fault.NewCollector(), fault.NewCollector()
	a := Attach(beforeRouterTables{n}, bus, aCol, Options{})
	ref := refAttach(n, bus, refCol, Options{})

	n.Run(0, 10000)
	victim := n.Connections()[0]
	sc, err := n.SpecOf(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.CloseConnection(victim); err != nil {
		t.Fatal(err)
	}
	sc.ID = n.FreshConnID()
	if d, err := n.Admit(sc); err != nil || !d.Admissible {
		t.Fatalf("Admit(%d): %v %s", sc.ID, err, d.Detail)
	}
	a.Resync(beforeRouterTables{n})
	for _, ev := range rec.evs {
		ref.Event(ev)
	}
	rec.evs = rec.evs[:0]
	ref.Resync(n)
	// A stale auditor would flag the newcomer in its legitimate slots, and
	// police it by the closed connection's quota.
	n.Run(0, 5000)
	if a.Violations() != 0 {
		t.Errorf("%d violations on the new schedule before anything was broken", a.Violations())
	}
	n.NIOf(mustInfo(t, n, sc.ID).SrcNI).CorruptSlotForTest(sc.ID)
	n.Run(0, 5000)
	for _, ev := range rec.evs {
		ref.Event(ev)
	}
	// Ghost flits of the closed connection: they own no slot, and have no
	// quota left to be measured against either.
	ghost := trace.Event{Kind: trace.SlotStart, Conn: victim, Slot: 1, Time: n.Engine().Now(),
		Comp: bus.Component(n.Mesh.Node(mustInfo(t, n, sc.ID).SrcNI).Name)}
	for i := 0; i < 12; i++ { // far past its old quota, whatever the revolution boundaries
		ghost.Time += 1000
		a.Event(ghost)
		ref.Event(ghost)
	}
	if ref.byKind[fault.SlotOwnership] == 0 {
		t.Errorf("the corrupted table of the admitted connection went unnoticed (%v)", ref.byKind)
	}
	sameVerdict(t, a, aCol, ref, refCol)
}

// TestEventAcceptsAnyEvent: the bus can carry any trace.Event, so the auditor
// must take ids it has no table entry for — negative, or far past the
// network's — without panicking and without growing a table to reach them;
// they read as an unknown connection, a component with no table, a resource
// that does not exist.
func TestEventAcceptsAnyEvent(t *testing.T) {
	n, _ := buildNet(t, core.Synchronous)
	bus := trace.NewBus()
	n.AttachTracer(bus)
	col := fault.NewCollector()
	a := Attach(n, bus, col, Options{})
	n.Run(0, 5000) // tables warm, every component seen
	conns, comps := len(a.conns), bus.NumComponents()
	before := a.Violations()

	wild := []int64{-1 << 62, -1 << 31, -7, -1, 0, 1, 255, 256, 257, 1 << 20, 1<<31 - 1, 1 << 40, 1<<63 - 1}
	for kind := trace.Inject; kind <= trace.Reroute; kind++ {
		for _, conn := range wild {
			for _, comp := range wild {
				for _, arg := range wild {
					a.Event(trace.Event{Kind: kind, Time: 6000000, Ref: 5990000, Conn: phit.ConnID(conn),
						Comp: trace.CompID(comp), Arg: arg, Slot: int32(arg), Seq: arg})
				}
			}
		}
	}
	if len(a.conns) != conns || len(a.chans) != conns {
		t.Errorf("connection tables grew from %d to %d/%d entries", conns, len(a.conns), len(a.chans))
	}
	if len(a.comps) > comps {
		t.Errorf("component table has %d entries for %d interned components", len(a.comps), comps)
	}
	for i := range a.comps {
		if len(a.comps[i].last) > maxPorts {
			t.Errorf("component %d tracks %d ports", i, len(a.comps[i].last))
		}
	}
	// Connection 1 and component ids 0 and 1 exist, so some of the wild
	// events are real breaches; what matters is that the checks still run.
	if a.Violations() == before {
		t.Error("no wild event was checked at all")
	}
	var b bytes.Buffer
	a.WriteSummary(&b)
}

// TestEventDoesNotAllocate pins the per-event path of a warmed auditor at
// zero allocations: the second half of a clean run's stream, fed to an
// auditor that has seen the first.
func TestEventDoesNotAllocate(t *testing.T) {
	n, _ := buildNet(t, core.Mesochronous)
	bus := trace.NewBus()
	n.AttachTracer(bus)
	rec := &recorder{}
	bus.Attach(rec)
	n.Run(0, 20000)

	a := Attach(n, bus, nil, Options{}) // strict: a violation would panic
	half := len(rec.evs) / 2
	for _, ev := range rec.evs[:half] {
		a.Event(ev)
	}
	next := half
	allocs := testing.AllocsPerRun(len(rec.evs)-half-1, func() {
		a.Event(rec.evs[next])
		next++
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per event", allocs)
	}
	if half < 1000 || a.Violations() != 0 {
		t.Fatalf("%d events warmed the auditor, %d violations", half, a.Violations())
	}
}
