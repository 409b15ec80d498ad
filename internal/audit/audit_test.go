package audit

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/trace"
)

// buildNet assembles a small 2x1-mesh workload. The component-level fault
// reporter is always a collector, which also gives the network its
// ownership probes, so fabric checks degrade gracefully and the auditor's
// verdict stays separable.
func buildNet(t testing.TB, mode core.Mode) (*core.Network, *fault.Collector) {
	t.Helper()
	m := topology.NewMesh(2, 1, 2)
	uc := spec.Random(spec.RandomConfig{
		Name: "audit", Seed: 3, IPs: 4, Apps: 2, Conns: 3,
		MinRateMBps: 20, MaxRateMBps: 80,
		MinLatencyNs: 300, MaxLatencyNs: 900,
	})
	spec.MapIPsByTraffic(uc, m)
	col := fault.NewCollector()
	cfg := core.Config{Mode: mode, FaultReporter: col}
	n, err := core.Build(m, uc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n, col
}

func TestCleanRunHasNoViolations(t *testing.T) {
	for _, mode := range []core.Mode{core.Synchronous, core.Mesochronous, core.Asynchronous} {
		t.Run(mode.String(), func(t *testing.T) {
			n, fabric := buildNet(t, mode)
			bus := trace.NewBus()
			n.AttachTracer(bus)
			audCol := fault.NewCollector()
			a := Attach(n, bus, audCol, Options{})
			n.Run(0, 20000)
			if a.Violations() != 0 {
				var b strings.Builder
				a.WriteSummary(&b)
				for _, v := range audCol.Violations() {
					t.Log(v)
				}
				t.Fatalf("clean %s run: %d audit violations\n%s", mode, a.Violations(), b.String())
			}
			if fabric.Total() != 0 {
				t.Fatalf("clean %s run: %d fabric violations", mode, fabric.Total())
			}
			var b strings.Builder
			a.WriteSummary(&b)
			if !strings.Contains(b.String(), "0 violations") || !strings.Contains(b.String(), "ok") {
				t.Errorf("summary:\n%s", b.String())
			}
			for _, id := range n.Connections() {
				if st := n.NIOf(mustInfo(t, n, id).DstNI).InStats(id); st.Delivered == 0 {
					t.Errorf("connection %d delivered nothing", id)
				}
			}
		})
	}
}

func mustInfo(t *testing.T, n *core.Network, id phit.ConnID) core.ConnectionInfo {
	t.Helper()
	info, err := n.Info(id)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// TestAuditorCatchesCorruptedTable is the acceptance fixture: a slot
// reservation deliberately moved off its allocated position must surface
// as a one-line slot-ownership diagnostic.
func TestAuditorCatchesCorruptedTable(t *testing.T) {
	n, _ := buildNet(t, core.Synchronous)
	bus := trace.NewBus()
	n.AttachTracer(bus)
	audCol := fault.NewCollector()
	a := Attach(n, bus, audCol, Options{})
	victim := n.Connections()[0]
	n.NIOf(mustInfo(t, n, victim).SrcNI).CorruptSlotForTest(victim)
	n.Run(0, 20000)
	if a.ByKind()[fault.SlotOwnership] == 0 {
		t.Fatalf("mis-shifted slot table went undetected (violations: %v)", a.ByKind())
	}
	found := false
	for _, v := range audCol.Violations() {
		if v.Kind != fault.SlotOwnership {
			continue
		}
		found = true
		line := v.String()
		if strings.Contains(line, "\n") {
			t.Errorf("diagnostic is not one line: %q", line)
		}
		if !strings.Contains(line, "slot-ownership") {
			t.Errorf("diagnostic missing kind: %q", line)
		}
	}
	if !found {
		t.Fatal("no slot-ownership violation stored")
	}
}

// TestAuditorFlagsOversubscription pins the paper's oversubscription
// story: an 8x-hostile source is back-pressured at its own NI, its
// self-inflicted source backlog is reported as a single breach of
// contract (injection-rate) per connection, and — crucially — none of the
// resulting delay is misattributed to the fabric as a bound violation.
func TestAuditorFlagsOversubscription(t *testing.T) {
	n, _ := buildNet(t, core.Synchronous)
	bus := trace.NewBus()
	n.AttachTracer(bus)
	audCol := fault.NewCollector()
	a := Attach(n, bus, audCol, Options{})
	hostile := n.Connections()[0]
	n.Generator(hostile).SetRateMBps(mustInfo(t, n, hostile).RequiredMBps*8, 4)
	n.Run(0, 20000)
	if got := a.ByKind()[fault.InjectionRate]; got != 1 {
		t.Fatalf("hostile source flagged %d times, want 1 (%v)", got, a.ByKind())
	}
	if got := a.ByKind()[fault.LatencyBound]; got != 0 {
		t.Fatalf("self-inflicted backlog misattributed as %d bound violations", got)
	}
	// The same scenario with tolerance (a deliberate interference
	// experiment): nothing at all is reported.
	n2, _ := buildNet(t, core.Synchronous)
	bus2 := trace.NewBus()
	n2.AttachTracer(bus2)
	a2 := Attach(n2, bus2, fault.NewCollector(), Options{TolerateOversubscription: true})
	n2.Generator(hostile).SetRateMBps(mustInfo(t, n2, hostile).RequiredMBps*8, 4)
	n2.Run(0, 20000)
	if a2.Violations() != 0 {
		t.Fatalf("tolerated oversubscription still reported %d violations", a2.Violations())
	}
}

// TestSyntheticViolations feeds fabricated events straight into the sink
// to pin the delivery-order, latency-bound and exclusivity checks.
func TestSyntheticViolations(t *testing.T) {
	n, _ := buildNet(t, core.Synchronous)
	bus := trace.NewBus()
	comp := bus.Emitter("synthetic").Comp()
	audCol := fault.NewCollector()
	a := Attach(n, bus, audCol, Options{})
	conn := n.Connections()[0]

	// Out-of-order delivery: first word carries sequence 5.
	a.Event(trace.Event{Kind: trace.Eject, Conn: conn, Seq: 5, Time: 1000, Ref: 0, Comp: comp, Slot: trace.NoSlot})
	if a.ByKind()[fault.DeliveryOrder] != 1 {
		t.Fatalf("out-of-order delivery not flagged: %v", a.ByKind())
	}

	// Latency past the bound (1 s is past any bound on this fabric).
	a.Event(trace.Event{Kind: trace.Eject, Conn: conn, Seq: 6, Time: 1e12, Ref: 0, Comp: comp, Slot: trace.NoSlot})
	if a.ByKind()[fault.LatencyBound] != 1 {
		t.Fatalf("bound violation not flagged: %v", a.ByKind())
	}

	// Two connections on one resource within a flit cycle.
	c2 := n.Connections()[1]
	a.Event(trace.Event{Kind: trace.RouterForward, Conn: conn, Arg: 2, Time: 2000, Comp: comp, Slot: trace.NoSlot})
	a.Event(trace.Event{Kind: trace.RouterForward, Conn: c2, Arg: 2, Time: 2001, Comp: comp, Slot: trace.NoSlot})
	if a.ByKind()[fault.SlotContention] != 1 {
		t.Fatalf("slot contention not flagged: %v", a.ByKind())
	}

	// Word injection far past the guaranteed rate drains the bucket and
	// withdraws the connection's bound checks.
	for i := 0; i < 200; i++ {
		a.Event(trace.Event{Kind: trace.Inject, Conn: conn, Seq: int64(i), Time: clock.Time(3000 + i), Comp: comp, Slot: trace.NoSlot})
	}
	if a.ByKind()[fault.InjectionRate] == 0 {
		t.Fatalf("line-rate injection flood not flagged: %v", a.ByKind())
	}

	for _, v := range audCol.Violations() {
		if strings.Contains(v.String(), "\n") {
			t.Errorf("diagnostic is not one line: %q", v.String())
		}
	}
}

func TestIsolationDiff(t *testing.T) {
	base := Timelines{1: {100, 200}, 2: {150}}
	same := Timelines{1: {100, 200}, 2: {150}}
	if r := Diff(base, same); !r.Identical || r.Words != 3 || r.Conns != 2 {
		t.Fatalf("identical diff = %+v", r)
	}
	late := Timelines{1: {100, 201}, 2: {150}}
	if r := Diff(base, late); r.Identical || !strings.Contains(r.FirstDiff, "word 1") {
		t.Fatalf("late diff = %+v", r)
	}
	missing := Timelines{1: {100, 200}, 2: {}}
	if r := Diff(base, missing); r.Identical || !strings.Contains(r.FirstDiff, "words") {
		t.Fatalf("missing diff = %+v", r)
	}
}

// TestIsolationUnderInterference is the composability claim in
// miniature: doubling an interferer's offered load must not move a
// single delivery instant of the audited connection.
func TestIsolationUnderInterference(t *testing.T) {
	res, err := Isolation(2, func(perturbed bool) (Timelines, error) {
		n, _ := buildNet(t, core.Synchronous)
		watched := n.Connections()[0]
		interferer := n.Connections()[1]
		bus := trace.NewBus()
		rx := RecordDeliveries(bus, 0, watched)
		n.AttachTracer(bus)
		if perturbed {
			n.Generator(interferer).SetRateMBps(mustInfo(t, n, interferer).RequiredMBps*4, 4)
		}
		n.Run(0, 20000)
		return rx.Timelines(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identical {
		t.Fatalf("interference visible: %s", res.FirstDiff)
	}
	if res.Words == 0 {
		t.Fatal("no deliveries compared")
	}
}

// TestDeliveriesKeepsOnlyWatchedEjects: the bus can carry any trace.Event,
// so the recorder must take every kind and any connection id — negative,
// zero, unwatched, far past the watched ones — and keep only the Ejects
// of watched connections strictly after the window start, in order.
func TestDeliveriesKeepsOnlyWatchedEjects(t *testing.T) {
	const from = clock.Time(1000)
	bus := trace.NewBus()
	d := RecordDeliveries(bus, from, 2, 5)

	wild := []int64{-1 << 31, -7, -1, 0, 1, 3, 4, 6, 1 << 20, 1<<31 - 1}
	for kind := trace.Inject; kind <= trace.Reroute; kind++ {
		for _, conn := range wild {
			bus.Emit(trace.Event{Kind: kind, Time: 2000, Conn: phit.ConnID(conn), Slot: trace.NoSlot})
		}
		if kind != trace.Eject {
			bus.Emit(trace.Event{Kind: kind, Time: 2000, Conn: 2, Slot: trace.NoSlot})
		}
	}
	for _, at := range []clock.Time{0, 999, from} {
		bus.Emit(trace.Event{Kind: trace.Eject, Time: at, Conn: 2, Slot: trace.NoSlot})
	}
	for _, at := range []clock.Time{from + 1, 1500, 3000} {
		bus.Emit(trace.Event{Kind: trace.Eject, Time: at, Conn: 2, Slot: trace.NoSlot})
	}

	got := d.Timelines()
	if len(got) != 2 {
		t.Fatalf("timelines for %d connections, want the 2 watched", len(got))
	}
	if want := []clock.Time{from + 1, 1500, 3000}; !slices.Equal(got[2], want) {
		t.Errorf("connection 2 timeline %v, want %v", got[2], want)
	}
	if tl, ok := got[5]; !ok || tl != nil {
		t.Errorf("connection 5 timeline %v (present %v), want present and empty", tl, ok)
	}
	// Timelines is a copy: a later delivery does not reach it.
	bus.Emit(trace.Event{Kind: trace.Eject, Time: 4000, Conn: 2, Slot: trace.NoSlot})
	if len(got[2]) != 3 || len(d.Timelines()[2]) != 4 {
		t.Error("Timelines shares its backing array with the recorder")
	}
}
