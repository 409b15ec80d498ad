package router

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestRouterViolations drives every envelope check of the router core
// through both clocking regimes — the pipelined Step and the wrapper-mode
// StepFlitDirect, which fire the same per-phit checks — in strict mode
// (panic) and collecting mode (exactly one violation of the expected kind,
// datapath keeps going).
func TestRouterViolations(t *testing.T) {
	eopHeader := func(t *testing.T, path []int, conn phit.ConnID) phit.Phit {
		h := header(t, path, 0)
		h.EoP = true
		h.Meta.Conn = conn
		return h
	}
	cases := []struct {
		name string
		kind fault.Kind
		run  func(t *testing.T, c *Core)
	}{
		{
			name: "step/expected-header",
			kind: fault.ProtocolError,
			run: func(t *testing.T, c *Core) {
				var out []phit.Phit
				out = stepOne(c, payload(1, false), out)
				for i := 0; i < 2; i++ {
					out = stepOne(c, phit.IdlePhit, out)
				}
			},
		},
		{
			name: "step/route-off-mesh",
			kind: fault.RouteError,
			run: func(t *testing.T, c *Core) {
				var out []phit.Phit
				out = stepOne(c, eopHeader(t, []int{5}, 1), out) // port 5 on an arity-2 router
				for i := 0; i < 2; i++ {
					out = stepOne(c, phit.IdlePhit, out)
				}
			},
		},
		{
			name: "step/contention",
			kind: fault.SlotContention,
			run: func(t *testing.T, c *Core) {
				in := []phit.Phit{eopHeader(t, []int{1}, 1), eopHeader(t, []int{1}, 2)}
				var out []phit.Phit
				out = c.Step(in, out)
				for i := 0; i < 2; i++ {
					out = c.Step(make([]phit.Phit, 2), out)
				}
			},
		},
		{
			name: "flit/expected-header",
			kind: fault.ProtocolError,
			run: func(t *testing.T, c *Core) {
				var in [2]phit.Flit
				in[0][0] = payload(1, false)
				stepFlit(c, in[:])
			},
		},
		{
			name: "flit/route-off-mesh",
			kind: fault.RouteError,
			run: func(t *testing.T, c *Core) {
				var in [2]phit.Flit
				in[0][0] = eopHeader(t, []int{5}, 1)
				stepFlit(c, in[:])
			},
		},
		{
			name: "flit/contention",
			kind: fault.SlotContention,
			run: func(t *testing.T, c *Core) {
				var in [2]phit.Flit
				in[0][0] = eopHeader(t, []int{1}, 1)
				in[1][0] = eopHeader(t, []int{1}, 2)
				stepFlit(c, in[:])
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/strict", func(t *testing.T) {
			c := NewCore("r", 2, layout)
			defer func() {
				if recover() == nil {
					t.Error("no panic in strict mode")
				}
			}()
			tc.run(t, c)
		})
		t.Run(tc.name+"/collect", func(t *testing.T) {
			c := NewCore("r", 2, layout)
			col := fault.NewCollector()
			c.SetReporter(col)
			tc.run(t, c)
			if col.Total() != 1 {
				t.Fatalf("collected %d violations, want exactly 1: %v", col.Total(), col.Violations())
			}
			if got := col.Violations()[0].Kind; got != tc.kind {
				t.Errorf("violation kind %v, want %v", got, tc.kind)
			}
		})
	}
}

// TestCoreContentionKeepsFirst: in collecting mode the first-switched phit
// survives a contention; only the collider is dropped.
func TestCoreContentionKeepsFirst(t *testing.T) {
	c := NewCore("r", 2, layout)
	col := fault.NewCollector()
	c.SetReporter(col)
	bus := trace.NewBus()
	events := &eventLog{}
	bus.Attach(events)
	c.SetTracer(bus.Emitter("r"))
	var in [2]phit.Flit
	h0 := header(t, []int{1}, 3)
	h0.EoP = true
	h0.Meta.Conn = 1
	h1 := h0
	h1.Meta.Conn = 2
	in[0][0] = h0
	in[1][0] = h1
	out := stepFlit(c, in[:])
	if !out[1][0].Valid || out[1][0].Meta.Conn != 1 {
		t.Errorf("first phit did not survive the contention: %v", out[1][0])
	}
	if len(events.evs) != 1 || events.evs[0].Conn != 1 {
		t.Errorf("events %+v, want one RouterForward of connection 1", events.evs)
	}
}

// TestComponentUnconnectedOutputCollects: the engine-adapter variant of the
// route-off-mesh check records a violation and keeps the simulation
// running (the strict variant lives in router_test.go).
func TestComponentUnconnectedOutputCollects(t *testing.T) {
	eng := sim.New()
	clk := clock.NewMHz("clk", 500, 0)
	in := sim.NewWire[phit.Phit]("in")
	eng.AddWire(in)
	r := NewComponent("r", 2, layout, clk)
	r.ConnectIn(0, in)
	col := fault.NewCollector()
	r.SetReporter(col)
	eng.Add(r)
	eng.Add(&scriptedSource{name: "src", clk: clk, out: in, seq: []phit.Phit{
		header(t, []int{1}, 0),
		{Valid: true, Kind: phit.Payload, EoP: true},
	}})
	eng.Run(10 * clk.Period)
	if col.Total() == 0 {
		t.Fatal("no violation for a flit routed off the edge of the network")
	}
	for _, v := range col.Violations() {
		if v.Kind != fault.RouteError {
			t.Errorf("unexpected violation kind %v", v.Kind)
		}
	}
}
