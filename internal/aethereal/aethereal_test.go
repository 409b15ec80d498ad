package aethereal

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/sim"
	"repro/internal/trace"
)

var layout = phit.DefaultLayout

// beHarness: NI A -> router (port 0 in, port 1 out) -> NI B.
type beHarness struct {
	eng  *sim.Engine
	clk  *clock.Clock
	a, b *NI
	r    *Router
}

func newBEHarness(t *testing.T, bufWords, maxPacket int) *beHarness {
	t.Helper()
	eng := sim.New()
	clk := clock.NewMHz("clk", 500, 0)
	mk := func(name string) (*sim.Wire[phit.Phit], *sim.Wire[int]) {
		d := sim.NewWire[phit.Phit](name + ".d")
		c := sim.NewWire[int](name + ".c")
		eng.AddWire(d)
		eng.AddWire(c)
		return d, c
	}
	aToR, aToRc := mk("a>r")
	rToB, rToBc := mk("r>b")
	bToR, bToRc := mk("b>r")
	rToA, rToAc := mk("r>a")

	r := NewRouter("R", 2, layout, clk, bufWords)
	r.ConnectIn(0, aToR, aToRc)
	r.ConnectIn(1, bToR, bToRc)
	r.ConnectOut(0, rToA, rToAc, bufWords)
	r.ConnectOut(1, rToB, rToBc, bufWords)

	a := NewNI("A", clk, layout, rToA, aToR, aToRc, rToAc, bufWords, maxPacket)
	b := NewNI("B", clk, layout, rToB, bToR, bToRc, rToBc, bufWords, maxPacket)

	hdrAB, _ := layout.Encode([]int{1}, 0, 0)
	a.AddOutConn(OutConnConfig{ID: 1, Header: hdrAB})
	b.AddInConn(InConnConfig{ID: 1, QID: 0})

	eng.Add(r)
	eng.Add(a)
	eng.Add(b)
	return &beHarness{eng: eng, clk: clk, a: a, b: b, r: r}
}

func (h *beHarness) cycles(n int64) { h.eng.Run(h.eng.Now() + clock.Time(n)*h.clk.Period) }

func TestBEDelivery(t *testing.T) {
	h := newBEHarness(t, 8, 16)
	for i := 0; i < 20; i++ {
		if !h.a.Offer(h.eng.Now(), 1, phit.Meta{Seq: int64(i), Injected: h.eng.Now()}) {
			t.Fatalf("Offer %d rejected", i)
		}
	}
	h.cycles(100)
	st := h.b.InStats(1)
	if st.Delivered != 20 {
		t.Fatalf("delivered %d of 20", st.Delivered)
	}
	lat := &st.Latency
	if lat.Min() <= 0 || lat.Max() < lat.Min() {
		t.Errorf("latency stats: min %v max %v", lat.Min(), lat.Max())
	}
	if h.r.Forwarded() < 20 {
		t.Errorf("router forwarded %d", h.r.Forwarded())
	}
	if st.FirstAt <= 0 || st.LastAt <= st.FirstAt {
		t.Errorf("span %v..%v", st.FirstAt, st.LastAt)
	}
}

func TestBEPacketisationMaxLength(t *testing.T) {
	h := newBEHarness(t, 8, 4)
	for i := 0; i < 10; i++ {
		h.a.Offer(h.eng.Now(), 1, phit.Meta{Seq: int64(i), Injected: h.eng.Now()})
	}
	// Count headers on the A->R wire: 10 words at max 4 payload per
	// packet = at least 3 headers.
	headers := 0
	for i := 0; i < 80; i++ {
		h.cycles(1)
		w := h.a.out.Read()
		if w.Valid && (w.Kind == phit.Header || w.Kind == phit.CreditOnly) {
			headers++
		}
	}
	if headers < 3 {
		t.Errorf("saw %d headers; max-packet 4 should force at least 3", headers)
	}
	if got := h.b.InStats(1).Delivered; got != 10 {
		t.Errorf("delivered %d", got)
	}
}

func TestBELinkLevelFlowControl(t *testing.T) {
	// Tiny buffers: words must still all arrive, never overflowing
	// (overflow panics).
	h := newBEHarness(t, 2, 16)
	for i := 0; i < 30; i++ {
		h.a.Offer(h.eng.Now(), 1, phit.Meta{Seq: int64(i), Injected: h.eng.Now()})
	}
	h.cycles(300)
	if got := h.b.InStats(1).Delivered; got != 30 {
		t.Fatalf("delivered %d of 30 with 2-word buffers", got)
	}
}

func TestBEArbitrationShares(t *testing.T) {
	// Two NIs (A and B) both sending to each other through one router:
	// round-robin must serve both.
	h := newBEHarness(t, 8, 8)
	hdrBA, _ := layout.Encode([]int{0}, 0, 0)
	h.b.AddOutConn(OutConnConfig{ID: 2, Header: hdrBA})
	h.a.AddInConn(InConnConfig{ID: 2, QID: 0})
	for i := 0; i < 15; i++ {
		h.a.Offer(h.eng.Now(), 1, phit.Meta{Seq: int64(i), Injected: h.eng.Now()})
		h.b.Offer(h.eng.Now(), 2, phit.Meta{Seq: int64(i), Injected: h.eng.Now()})
	}
	h.cycles(200)
	if got := h.b.InStats(1).Delivered; got != 15 {
		t.Errorf("A->B delivered %d", got)
	}
	if got := h.a.InStats(2).Delivered; got != 15 {
		t.Errorf("B->A delivered %d", got)
	}
}

// TestBEResetStatsAndArrivals: every delivery is one Eject on the bus, in
// arrival order, and ResetStats clears the NI's own statistics.
func TestBEResetStatsAndArrivals(t *testing.T) {
	h := newBEHarness(t, 8, 16)
	bus := trace.NewBus()
	log := &eventLog{}
	bus.Attach(log)
	h.b.SetTracer(bus.Emitter("B"))
	for i := 0; i < 5; i++ {
		h.a.Offer(h.eng.Now(), 1, phit.Meta{Seq: int64(i), Injected: h.eng.Now()})
	}
	h.cycles(60)
	var arrivals []clock.Time
	for _, ev := range log.evs {
		if ev.Kind == trace.Eject && ev.Conn == 1 {
			arrivals = append(arrivals, ev.Time)
		}
	}
	if len(arrivals) != 5 || h.b.InStats(1).Delivered != 5 {
		t.Errorf("recorded %d arrivals, %d delivered", len(arrivals), h.b.InStats(1).Delivered)
	}
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i] <= arrivals[i-1] {
			t.Error("arrivals not strictly increasing")
		}
	}
	h.b.ResetStats()
	if h.b.InStats(1).Delivered != 0 || h.b.InStats(1).Latency.N() != 0 {
		t.Error("reset incomplete")
	}
}

func TestBERouterPanics(t *testing.T) {
	clk := clock.NewMHz("clk", 500, 0)
	for name, f := range map[string]func(){
		"arity":  func() { NewRouter("r", 1, layout, clk, 8) },
		"wide":   func() { NewRouter("r", maxArity+1, layout, clk, 8) },
		"layout": func() { NewRouter("r", 2, phit.HeaderLayout{}, clk, 8) },
		"buffer": func() { NewRouter("r", 2, layout, clk, 1) },
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

func TestBENIPanics(t *testing.T) {
	clk := clock.NewMHz("clk", 500, 0)
	n := NewNI("n", clk, layout, nil, nil, nil, nil, 8, 16)
	for name, f := range map[string]func(){
		"zero packet": func() { NewNI("n", clk, layout, nil, nil, nil, nil, 8, -1) },
		"dup out": func() {
			n.AddOutConn(OutConnConfig{ID: 1})
			n.AddOutConn(OutConnConfig{ID: 1})
		},
		"unknown offer": func() { n.Offer(0, 99, phit.Meta{}) },
		"unknown in":    func() { n.InStats(42) },
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

// TestRouterUpdateDoesNotAllocate: a router switching a steady stream of
// packets keeps its per-cycle scratch and its input buffers, so a cycle —
// sampled from real wires, stepped by an engine — costs no allocation.
func TestRouterUpdateDoesNotAllocate(t *testing.T) {
	eng := sim.New()
	clk := clock.NewMHz("clk", 500, 0)
	r := NewRouter("R", 2, layout, clk, 8)
	tw := &twinWires{eng: eng}
	in, back := tw.link("in0")
	out, credit := tw.link("out1")
	r.ConnectIn(0, in, back)
	r.ConnectOut(1, out, credit, 8)
	eng.Add(r)
	hdr, _ := layout.Encode([]int{1}, 0, 0)
	cycle := 0
	step := func() {
		// Input 0 carries back-to-back 4-word packets to output 1, whose
		// downstream frees every word the cycle after it was sent.
		w := phit.Phit{Valid: true, Kind: phit.Payload, Meta: phit.Meta{Conn: 1}}
		switch cycle % 4 {
		case 0:
			w.Kind, w.Data = phit.Header, hdr
		case 3:
			w.EoP = true
		}
		in.Drive(w)
		if out.Read().Valid {
			credit.Drive(1)
		} else {
			credit.Drive(0)
		}
		eng.Run(eng.Now() + clk.Period)
		cycle++
	}
	for i := 0; i < 16; i++ {
		step()
	}
	if r.Forwarded() == 0 {
		t.Fatal("the rig switches nothing")
	}
	before := r.Forwarded()
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Errorf("a router cycle allocates %v times in steady state", allocs)
	}
	if got := r.Forwarded() - before; got < 200 {
		t.Errorf("router forwarded %d words over 200 cycles", got)
	}
	if r.Stalls() != 0 || back.Read() != 1 {
		t.Errorf("the stream is not steady: %d stalls, %d credits returned in the last cycle", r.Stalls(), back.Read())
	}
}
