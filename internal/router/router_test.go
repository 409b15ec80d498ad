package router

import (
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/sim"
	"repro/internal/trace"
)

var layout = phit.DefaultLayout

func header(t *testing.T, path []int, qid int) phit.Phit {
	t.Helper()
	w, err := layout.Encode(path, qid, 0)
	if err != nil {
		t.Fatal(err)
	}
	return phit.Phit{Valid: true, Kind: phit.Header, Data: w}
}

func payload(seq int64, eop bool) phit.Phit {
	return phit.Phit{Valid: true, Kind: phit.Payload, EoP: eop, Data: phit.Word(seq), Meta: phit.Meta{Seq: seq}}
}

// step feeds one cycle with a single valid input on port 0.
func stepOne(c *Core, p phit.Phit, out []phit.Phit) []phit.Phit {
	in := make([]phit.Phit, c.Arity())
	in[0] = p
	return c.Step(in, out)
}

func TestCoreThreeCycleLatency(t *testing.T) {
	c := NewCore("r", 3, layout)
	var out []phit.Phit
	h := header(t, []int{2}, 4)

	out = stepOne(c, h, out) // call 0: into input register
	for _, p := range out {
		if p.Valid {
			t.Fatal("output valid after 1 call")
		}
	}
	out = stepOne(c, payload(1, false), out) // call 1: header in HPU
	for _, p := range out {
		if p.Valid {
			t.Fatal("output valid after 2 calls")
		}
	}
	// The router drives its output during the third cycle of a flit; the
	// downstream element samples it one cycle later, completing the
	// 3-cycle per-hop latency.
	out = stepOne(c, payload(2, true), out) // call 2: header on output
	if !out[2].Valid || out[2].Kind != phit.Header {
		t.Fatalf("header not on port 2 after 3 cycles: %v", out)
	}
	// Path must have been consumed (shifted).
	if got := layout.QID(out[2].Data); got != 4 {
		t.Errorf("qid corrupted: %d", got)
	}
	port, _ := layout.NextPort(out[2].Data)
	if port != 0 {
		t.Errorf("path not shifted: next port %d", port)
	}
	out = stepOne(c, phit.IdlePhit, out)
	if !out[2].Valid || out[2].Meta.Seq != 1 {
		t.Fatalf("payload 1 not following header: %v", out[2])
	}
	out = stepOne(c, phit.IdlePhit, out)
	if !out[2].Valid || !out[2].EoP || out[2].Meta.Seq != 2 {
		t.Fatalf("payload 2 with EoP missing: %v", out[2])
	}
}

func TestCorePortHeldUntilEoP(t *testing.T) {
	c := NewCore("r", 4, layout)
	var out []phit.Phit
	stepOne(c, header(t, []int{1}, 0), out) // call 0
	// A gap (idle cycle) inside the packet must not end it.
	stepOne(c, phit.IdlePhit, out)     // call 1
	stepOne(c, payload(1, false), out) // call 2
	stepOne(c, phit.IdlePhit, out)     // call 3
	// Output lags input by two calls: call 4 emits call 2's payload.
	out = stepOne(c, payload(2, true), out) // call 4
	if !out[1].Valid || out[1].Meta.Seq != 1 {
		t.Fatalf("payload 1 not routed to held port: %v", out)
	}
	out = stepOne(c, phit.IdlePhit, out) // call 5: gap
	if out[1].Valid {
		t.Fatalf("unexpected output during gap: %v", out)
	}
	out = stepOne(c, phit.IdlePhit, out) // call 6: p2
	if !out[1].Valid || out[1].Meta.Seq != 2 || !out[1].EoP {
		t.Fatalf("payload 2 not routed: %v", out)
	}
	// After EoP, a new header may pick another port.
	stepOne(c, header(t, []int{3}, 0), out) // call 7
	stepOne(c, phit.IdlePhit, out)          // call 8
	out = stepOne(c, phit.IdlePhit, out)    // call 9: header out
	if !out[3].Valid {
		t.Fatalf("new packet not routed to port 3: %v", out)
	}
}

func TestCoreContentionPanics(t *testing.T) {
	c := NewCore("r", 2, layout)
	in := make([]phit.Phit, 2)
	in[0] = header(t, []int{1}, 0)
	in[1] = header(t, []int{1}, 1) // same output port 1
	var out []phit.Phit
	out = c.Step(in, out)
	out = c.Step(make([]phit.Phit, 2), out)
	defer func() {
		if r := recover(); r == nil {
			t.Error("no panic on TDM contention")
		} else if !strings.Contains(r.(string), "contention") {
			t.Errorf("unexpected panic: %v", r)
		}
	}()
	c.Step(make([]phit.Phit, 2), out)
}

func TestCorePayloadWithoutHeaderPanics(t *testing.T) {
	c := NewCore("r", 2, layout)
	var out []phit.Phit
	stepOne(c, payload(1, false), out)
	defer func() {
		if recover() == nil {
			t.Error("no panic for payload outside a packet")
		}
	}()
	stepOne(c, phit.IdlePhit, out)
}

func TestCoreBadArityPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"arity":       func() { NewCore("r", 1, layout) },
		"layout":      func() { NewCore("r", 2, phit.HeaderLayout{}) },
		"input count": func() { NewCore("r", 3, layout).Step(make([]phit.Phit, 2), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// scriptedSource drives a fixed phit sequence onto a wire, then idles.
type scriptedSource struct {
	name string
	clk  *clock.Clock
	out  *sim.Wire[phit.Phit]
	seq  []phit.Phit
	pos  int
}

func (s *scriptedSource) Name() string        { return s.name }
func (s *scriptedSource) Clock() *clock.Clock { return s.clk }
func (s *scriptedSource) Update(now clock.Time) {
	if s.pos < len(s.seq) {
		s.out.Drive(s.seq[s.pos])
		s.pos++
	} else {
		s.out.Drive(phit.IdlePhit)
	}
}

func TestComponentWiring(t *testing.T) {
	eng := sim.New()
	clk := clock.NewMHz("clk", 500, 0)
	in := sim.NewWire[phit.Phit]("in")
	out := sim.NewWire[phit.Phit]("out")
	eng.AddWire(in)
	eng.AddWire(out)
	r := NewComponent("r", 3, layout, clk)
	r.ConnectIn(0, in)
	r.ConnectOut(2, out)
	eng.Add(r)
	bus := trace.NewBus()
	events := &eventLog{}
	bus.Attach(events)
	r.SetTracer(bus.Emitter("r"))
	if r.Name() != "r" || r.Clock() != clk {
		t.Error("component identity wrong")
	}
	src := &scriptedSource{name: "src", clk: clk, out: in, seq: []phit.Phit{
		header(t, []int{2}, 3),
		{Valid: true, Kind: phit.Payload, EoP: true, Meta: phit.Meta{Seq: 9}},
	}}
	eng.Add(src)

	sawHeader, sawPayload := false, false
	for i := 0; i < 10; i++ {
		eng.Run(eng.Now() + clk.Period)
		got := out.Read()
		if got.Valid && got.Kind == phit.Header {
			sawHeader = true
			if qid := layout.QID(got.Data); qid != 3 {
				t.Errorf("qid = %d", qid)
			}
		}
		if got.Valid && got.Kind == phit.Payload {
			sawPayload = true
			if got.Meta.Seq != 9 || !got.EoP {
				t.Errorf("payload = %v", got)
			}
		}
	}
	if !sawHeader || !sawPayload {
		t.Fatalf("header seen %v, payload seen %v", sawHeader, sawPayload)
	}
	// Header and payload are one flit: one RouterForward, to port 2.
	if len(events.evs) != 1 || events.evs[0].Kind != trace.RouterForward || events.evs[0].Arg != 2 {
		t.Errorf("events %+v, want one RouterForward to port 2", events.evs)
	}
}

func TestComponentUnconnectedOutputPanics(t *testing.T) {
	eng := sim.New()
	clk := clock.NewMHz("clk", 500, 0)
	in := sim.NewWire[phit.Phit]("in")
	eng.AddWire(in)
	r := NewComponent("r", 2, layout, clk)
	r.ConnectIn(0, in)
	eng.Add(r)
	eng.Add(&scriptedSource{name: "src", clk: clk, out: in, seq: []phit.Phit{
		header(t, []int{1}, 0),
		{Valid: true, Kind: phit.Payload, EoP: true},
	}})
	defer func() {
		if recover() == nil {
			t.Error("no panic for a flit routed off the edge of the network")
		}
	}()
	eng.Run(10 * clk.Period)
}

// stepFlit runs one wrapper-mode iteration over tokens held by value.
func stepFlit(c *Core, in []phit.Flit) []phit.Flit {
	out := make([]phit.Flit, len(in))
	inTok, outTok := make([]*phit.Flit, len(in)), make([]*phit.Flit, len(in))
	for i := range in {
		inTok[i], outTok[i] = &in[i], &out[i]
		out[i][0] = phit.Phit{Valid: true, Data: 99} // stale token: must be overwritten
	}
	c.StepFlitDirect(inTok, outTok)
	return out
}

func TestStepFlitDirect(t *testing.T) {
	c := NewCore("r", 3, layout)
	var in [3]phit.Flit
	in[0][0] = header(t, []int{2}, 5)
	in[0][1] = payload(1, false)
	in[0][2] = payload(2, true)
	out := stepFlit(c, in[:])
	if !out[2][0].Valid || out[2][0].Kind != phit.Header {
		t.Fatalf("flit not switched to port 2: %v", out[2])
	}
	if out[2][1].Meta.Seq != 1 || out[2][2].Meta.Seq != 2 || !out[2][2].EoP {
		t.Errorf("payload order wrong: %v", out[2])
	}
	// Empty token in -> empty tokens out.
	var empty [3]phit.Flit
	out = stepFlit(c, empty[:])
	for i, f := range out {
		if !f.Empty() {
			t.Errorf("port %d produced a non-empty token from empty inputs", i)
		}
	}
}

func TestStepFlitDirectContentionPanics(t *testing.T) {
	c := NewCore("r", 2, layout)
	var in [2]phit.Flit
	in[0][0] = header(t, []int{1}, 0)
	in[1][0] = header(t, []int{1}, 1)
	defer func() {
		if recover() == nil {
			t.Error("no panic on token contention")
		}
	}()
	stepFlit(c, in[:])
}

// TestStepFlitDirectPacketAcrossTokens: header elision — a packet spanning
// two consecutive tokens holds its port.
func TestStepFlitDirectPacketAcrossTokens(t *testing.T) {
	c := NewCore("r", 3, layout)
	var t1, t2 [3]phit.Flit
	t1[0][0] = header(t, []int{2}, 0)
	t1[0][1] = payload(1, false)
	t1[0][2] = payload(2, false) // packet stays open
	t2[0][0] = payload(3, false)
	t2[0][1] = payload(4, false)
	t2[0][2] = payload(5, true)
	out := stepFlit(c, t1[:])
	if !out[2][2].Valid {
		t.Fatal("first token not forwarded")
	}
	out = stepFlit(c, t2[:])
	if out[2][0].Meta.Seq != 3 || !out[2][2].EoP {
		t.Fatalf("continuation token not forwarded on held port: %v", out[2])
	}
}
