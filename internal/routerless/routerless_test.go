package routerless

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/trace"
)

// testCase builds a cols x rows mesh with one NI per router and a
// random mapped use case with modest rates.
func testCase(t *testing.T, cols, rows, conns int, seed int64) (*topology.Mesh, *spec.UseCase) {
	t.Helper()
	m := topology.NewMesh(cols, rows, 1)
	uc := spec.Random(spec.RandomConfig{
		Name: "rl", Seed: seed, IPs: cols * rows, Apps: 2, Conns: conns,
		MinRateMBps: 10, MaxRateMBps: 60,
		MinLatencyNs: 2000, MaxLatencyNs: 8000,
	})
	spec.MapIPsRoundRobin(uc, m, 3)
	if err := uc.Validate(); err != nil {
		t.Fatalf("use case invalid: %v", err)
	}
	return m, uc
}

func TestRouterlessMeetsGuarantees(t *testing.T) {
	m, uc := testCase(t, 3, 3, 8, 7)
	n, err := Build(m, uc, core.Config{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	rep := n.Run(4000, 20000)
	for _, c := range rep.Conns {
		if c.Delivered == 0 {
			t.Errorf("conn %d delivered nothing", c.Conn)
			continue
		}
		if !c.MetThroughput {
			t.Errorf("conn %d throughput %.1f below required %.1f MB/s",
				c.Conn, c.MeasuredMBps, c.RequiredMBps)
		}
		if !c.WithinBound {
			t.Errorf("conn %d latency max %.1f ns exceeds bound %.1f ns",
				c.Conn, c.LatMaxNs, c.BoundNs)
		}
		if c.GuaranteedMBps < c.RequiredMBps {
			t.Errorf("conn %d guarantee %.1f below requirement %.1f",
				c.Conn, c.GuaranteedMBps, c.RequiredMBps)
		}
	}
}

// TestRouterlessAuditClean: the shared conformance auditor, fed from the
// overlay's contracts, observes a full run without a single violation.
func TestRouterlessAuditClean(t *testing.T) {
	m, uc := testCase(t, 3, 3, 8, 7)
	n, err := Build(m, uc, core.Config{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	bus := trace.NewBus()
	n.AttachTracer(bus)
	rep := fault.NewCollector()
	a := audit.Attach(n, bus, rep, audit.Options{})
	n.Run(4000, 20000)
	if v := a.Violations(); v != 0 {
		var b strings.Builder
		a.WriteSummary(&b)
		t.Fatalf("auditor recorded %d violations:\n%s", v, b.String())
	}
}

// recSink records every event as a canonical line for byte comparison.
type recSink struct{ buf bytes.Buffer }

func (s *recSink) Event(ev trace.Event) {
	fmt.Fprintf(&s.buf, "%d %d %d %d %d %d %d %d\n",
		ev.Time, ev.Ref, ev.Seq, ev.Arg, ev.Conn, ev.Comp, ev.Slot, ev.Kind)
}

// TestRouterlessDeterministic: two same-seed builds produce
// byte-identical reports and byte-identical event streams.
func TestRouterlessDeterministic(t *testing.T) {
	run := func() (string, string) {
		m, uc := testCase(t, 3, 3, 8, 7)
		n, err := Build(m, uc, core.Config{})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		bus := trace.NewBus()
		sink := &recSink{}
		bus.Attach(sink)
		n.AttachTracer(bus)
		rep := n.Run(4000, 20000)
		var b strings.Builder
		rep.Write(&b)
		return b.String(), sink.buf.String()
	}
	r1, e1 := run()
	r2, e2 := run()
	if r1 != r2 {
		t.Errorf("reports diverge:\n%s\n---\n%s", r1, r2)
	}
	if e1 != e2 {
		t.Errorf("event streams diverge (%d vs %d bytes)", len(e1), len(e2))
	}
	if e1 == "" {
		t.Error("event stream is empty")
	}
}

// TestRouterlessRejectsInfeasible: a demand past every ring's capacity
// fails at build time with a placement error, not at run time.
func TestRouterlessRejectsInfeasible(t *testing.T) {
	m := topology.NewMesh(2, 2, 1)
	uc := &spec.UseCase{
		Name: "hog",
		Apps: 1,
		IPs: []spec.IP{
			{ID: 0, Name: "ip0", NI: m.NIAt(0, 0, 0)},
			{ID: 1, Name: "ip1", NI: m.NIAt(1, 0, 0)},
		},
		Connections: []spec.Connection{
			{ID: 1, App: 0, Src: 0, Dst: 1, BandwidthMBps: 1e6, MaxLatencyNs: 1e6},
		},
	}
	if err := uc.Validate(); err != nil {
		t.Fatalf("use case invalid: %v", err)
	}
	if _, err := Build(m, uc, core.Config{}); err == nil {
		t.Fatal("Build accepted a connection no ring can carry")
	}
}

// TestRouterlessBoundsAreTheSlotTableAnalysis: a ring is a slot table of
// S slots with one flit cycle of transit per segment, so every
// connection's published bound and guarantee are the mesh analysis at
// shift = hops, under CBR and under transactions (burst bound) alike.
func TestRouterlessBoundsAreTheSlotTableAnalysis(t *testing.T) {
	for _, tx := range []bool{false, true} {
		m, uc := testCase(t, 3, 3, 8, 7)
		n, err := Build(m, uc, core.Config{Transactional: tx})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		for _, ci := range n.conns {
			id := ci.spec.ID
			info, err := n.Info(id)
			if err != nil {
				t.Fatal(err)
			}
			want := analysis.ConnectionBounds(info.PathHops, info.Slots, ci.ring.S,
				n.Cfg.FreqMHz, n.Cfg.WordBytes, n.Cfg.AnalysisMode(info.RequiredMBps))
			if info.BoundNs != want.LatencyNs || info.GuaranteedMBps != want.GuaranteeMBps {
				t.Errorf("tx=%v conn %d: bound %.1f ns, guarantee %.2f Mbyte/s; the analysis at shift %d gives %.1f ns, %.2f Mbyte/s",
					tx, id, info.BoundNs, info.GuaranteedMBps, info.PathHops, want.LatencyNs, want.GuaranteeMBps)
			}
		}
	}
}

// TestRouterlessRingInventory: a 3x3 mesh gets 3 row rings, 3 column
// rings and one snake; a 1xN mesh gets only its row ring.
func TestRouterlessRingInventory(t *testing.T) {
	m, uc := testCase(t, 3, 3, 4, 3)
	n, err := Build(m, uc, core.Config{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := n.Rings(); got != 7 {
		t.Errorf("3x3 mesh built %d rings, want 7 (3 rows + 3 cols + snake)", got)
	}
	var b strings.Builder
	n.WriteRings(&b)
	if b.Len() == 0 {
		t.Error("WriteRings wrote nothing")
	}
}

// TestRingUpdateDoesNotAllocate: flits ride inline in the wheel, the wheel
// turns by index and source queues keep their capacity, so a flit cycle of
// a loaded ring — offers, injections, ejections — costs no allocation.
func TestRingUpdateDoesNotAllocate(t *testing.T) {
	m, uc := testCase(t, 3, 3, 8, 7)
	n, err := Build(m, uc, core.Config{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	flit := clock.Time(phit.FlitWords) * n.base.Period
	now := clock.Time(0)
	var seq int64
	step := func() {
		now += flit
		seq++
		for _, r := range n.rings {
			for _, ci := range r.conns {
				r.Offer(now, ci.spec.ID, phit.Meta{Seq: seq})
			}
			r.Update(now)
		}
	}
	// Saturating offers settle into a periodic pattern whose few distinct
	// latencies the histograms have then all seen.
	for i := 0; i < 2000; i++ {
		step()
	}
	delivered := func() (sum int64) {
		for _, ci := range n.conns {
			sum += ci.rx.Delivered
		}
		return sum
	}
	before := delivered()
	if allocs := testing.AllocsPerRun(500, step); allocs != 0 {
		t.Errorf("a loaded flit cycle allocates %v times", allocs)
	}
	if delivered() == before {
		t.Error("the rig delivers nothing")
	}
}
