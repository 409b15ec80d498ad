package admission

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/spec"
	"repro/internal/topology"
)

// buildNet builds the test network: the same light 3x2x2 workload the
// reconfig experiment uses, so closes leave room to re-admit into.
func buildNet(t *testing.T, mode core.Mode, reliable bool, col *fault.Collector) (*core.Network, *spec.UseCase) {
	t.Helper()
	m := topology.NewMesh(3, 2, 2)
	uc := spec.Random(spec.RandomConfig{
		Name: "adm", Seed: 2009, IPs: 10, Apps: 2, Conns: 8,
		MinRateMBps: 20, MaxRateMBps: 80,
		MinLatencyNs: 400, MaxLatencyNs: 1200,
	})
	spec.MapIPsByTraffic(uc, m)
	cfg := core.Config{Mode: mode, PhaseSeed: 4, Probes: mode != core.Asynchronous,
		Reliable: reliable, RetryBudget: 2, FaultReporter: col}
	if mode == core.Asynchronous {
		cfg.PPM = 200
	}
	n, err := core.Build(m, uc, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n, uc
}

// payloadCapacityMBps is a link's guaranteed-payload capacity: one of
// every three words is the flit header.
func payloadCapacityMBps(n *core.Network) float64 {
	return n.Cfg.FreqMHz * float64(n.Cfg.WordBytes) * 2 / 3
}

// crossingConnection returns a connection of the workload whose path
// includes at least one router-to-router link, plus all router-to-router
// links of the mesh — the avoid set that makes every route for that pair
// infeasible.
func crossingConnection(t *testing.T, n *core.Network, uc *spec.UseCase) (spec.Connection, []topology.LinkID) {
	t.Helper()
	var all []topology.LinkID
	for _, l := range n.Mesh.Links() {
		if n.Mesh.Node(l.From).Kind == topology.Router && n.Mesh.Node(l.To).Kind == topology.Router {
			all = append(all, l.ID)
		}
	}
	for _, c := range uc.Connections {
		links, err := n.ConnectionLinks(c.ID)
		if err != nil {
			t.Fatalf("ConnectionLinks(%d): %v", c.ID, err)
		}
		for _, l := range links {
			lk := n.Mesh.Link(l)
			if n.Mesh.Node(lk.From).Kind == topology.Router && n.Mesh.Node(lk.To).Kind == topology.Router {
				return c, all
			}
		}
	}
	t.Fatal("no connection crosses a router-to-router link")
	return spec.Connection{}, nil
}

// TestProbeTypedReasons: every rejection class comes back as its typed,
// machine-readable reason — and no probe, admissible or not, changes the
// live allocation by a single slot.
func TestProbeTypedReasons(t *testing.T) {
	n, uc := buildNet(t, core.Mesochronous, false, fault.NewCollector())
	n.Run(0, 5000)
	before := len(n.Alloc.Conns())
	capacity := payloadCapacityMBps(n)
	crossing, allRouterLinks := crossingConnection(t, n, uc)

	fresh := func(c spec.Connection) spec.Connection {
		c.ID = n.FreshConnID()
		return c
	}
	modest := fresh(uc.Connections[0])
	modest.BandwidthMBps, modest.MaxLatencyNs = 30, 1000

	cases := []struct {
		label string
		conn  spec.Connection
		opts  Options
		want  Reason
	}{
		{"modest re-request of known-good endpoints", modest, Options{}, Admitted},
		{"duplicate id of an open connection", uc.Connections[0], Options{}, DuplicateID},
		{"unknown endpoint IP", fresh(spec.Connection{Src: 999, Dst: uc.Connections[0].Dst,
			BandwidthMBps: 30, MaxLatencyNs: 1000}), Options{}, UnknownEndpoint},
		{"rate above link payload capacity", func() spec.Connection {
			c := fresh(uc.Connections[0])
			c.BandwidthMBps, c.MaxLatencyNs = capacity*1.25, 5000
			return c
		}(), Options{}, BoundInfeasible},
		{"latency budget below the path delay", func() spec.Connection {
			c := fresh(uc.Connections[0])
			c.BandwidthMBps, c.MaxLatencyNs = 30, 1
			return c
		}(), Options{}, BoundInfeasible},
		{"every candidate route avoided", func() spec.Connection {
			c := fresh(crossing)
			c.BandwidthMBps, c.MaxLatencyNs = 30, 1000
			return c
		}(), Options{Avoid: allRouterLinks}, NoPath},
		{"table-filling request on a loaded link", func() spec.Connection {
			c := fresh(uc.Connections[0])
			c.BandwidthMBps, c.MaxLatencyNs = capacity*0.97, 5000
			return c
		}(), Options{}, NoSlots},
	}
	for _, tc := range cases {
		d := Probe(n, tc.conn, tc.opts)
		if d.Why() != tc.want {
			t.Errorf("%s: got %s (%s), want %s", tc.label, d.Why(), d.Detail, tc.want)
		}
		if d.Admissible != (tc.want == Admitted) {
			t.Errorf("%s: Admissible = %v inconsistent with reason %s", tc.label, d.Admissible, d.Reason)
		}
		if got := len(n.Alloc.Conns()); got != before {
			t.Fatalf("%s: probe changed the live allocation (%d -> %d connections)", tc.label, before, got)
		}
		if _, err := n.Info(tc.conn.ID); tc.want == Admitted && err == nil {
			t.Errorf("%s: probe opened the connection", tc.label)
		}
	}

	// An admissible probe carries the full requested guarantees.
	d := Probe(n, modest, Options{})
	if !d.Admissible {
		t.Fatalf("modest probe rejected: %s (%s)", d.Reason, d.Detail)
	}
	if d.GuaranteeMBps < modest.BandwidthMBps {
		t.Errorf("guarantee %.1f MB/s below the %.1f requested", d.GuaranteeMBps, modest.BandwidthMBps)
	}
	if d.LatencyBoundNs > modest.MaxLatencyNs {
		t.Errorf("bound %.1f ns above the %.1f budget", d.LatencyBoundNs, modest.MaxLatencyNs)
	}
	if d.DataSlots == 0 || d.RevSlots == 0 {
		t.Errorf("admissible probe sized %d+%d slots", d.DataSlots, d.RevSlots)
	}
}

// TestProbeModeUnsupported: asynchronous builds index slots by token
// count and cannot reconfigure at run time; admission answers with the
// typed reason rather than corrupting the token schedule.
func TestProbeModeUnsupported(t *testing.T) {
	n, uc := buildNet(t, core.Asynchronous, false, fault.NewCollector())
	c := uc.Connections[0]
	c.ID = n.FreshConnID()
	d := Probe(n, c, Options{})
	if d.Why() != ModeUnsupported {
		t.Fatalf("got %s (%s), want mode-unsupported", d.Reason, d.Detail)
	}
}

// TestAdmitDelivers: Admit is Probe plus the commit — the admitted
// connection runs with the decision's guarantees and actually delivers.
func TestAdmitDelivers(t *testing.T) {
	n, uc := buildNet(t, core.Mesochronous, false, fault.NewCollector())
	n.Run(0, 5000)
	c := uc.Connections[0]
	c.ID = n.FreshConnID()
	c.BandwidthMBps, c.MaxLatencyNs = 30, 1000
	d, err := Admit(n, c, Options{})
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if !d.Admissible {
		t.Fatalf("rejected: %s (%s)", d.Reason, d.Detail)
	}
	info, err := n.Info(c.ID)
	if err != nil {
		t.Fatalf("Info: %v", err)
	}
	if len(info.Slots) != d.DataSlots {
		t.Errorf("decision promised %d data slots, commit programmed %d", d.DataSlots, len(info.Slots))
	}
	rep := n.Run(0, 30000)
	for _, cr := range rep.Conns {
		if cr.Conn != c.ID {
			continue
		}
		if cr.Delivered == 0 {
			t.Error("admitted connection delivered nothing")
		}
		if cr.LatMaxNs > d.LatencyBoundNs {
			t.Errorf("observed %.1f ns above the admitted bound %.1f ns", cr.LatMaxNs, d.LatencyBoundNs)
		}
		return
	}
	t.Fatal("admitted connection missing from the report")
}

// TestAdmitRejectionIsNotAnError: an inadmissible request is an answer,
// not an error, and leaves nothing behind.
func TestAdmitRejectionIsNotAnError(t *testing.T) {
	n, uc := buildNet(t, core.Mesochronous, false, fault.NewCollector())
	before := len(n.Alloc.Conns())
	c := uc.Connections[0]
	c.ID = n.FreshConnID()
	c.BandwidthMBps = payloadCapacityMBps(n) * 1.25
	d, err := Admit(n, c, Options{})
	if err != nil {
		t.Fatalf("Admit returned an error for a mere rejection: %v", err)
	}
	if d.Admissible {
		t.Fatal("impossible request admitted")
	}
	if !strings.Contains(d.Reason, "infeasible") {
		t.Errorf("reason = %s, want bound-infeasible", d.Reason)
	}
	if got := len(n.Alloc.Conns()); got != before {
		t.Fatalf("rejection changed the allocation (%d -> %d)", before, got)
	}
}
