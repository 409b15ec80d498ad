package wrapper

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/ni"
	"repro/internal/phit"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/slots"
)

var layout = phit.DefaultLayout

// buildRing wires NI A -> router -> NI B -> router -> NI A through a
// wrapped arity-2 router, everything plesiochronous. Port 0 of the router
// faces A, port 1 faces B.
type ring struct {
	eng        *sim.Engine
	a, b       *ni.NI
	wa, wb, wr *Wrapper
	base       *clock.Clock
}

func buildRing(t *testing.T, ppmA, ppmB, ppmR float64) *ring {
	t.Helper()
	eng := sim.New()
	base := clock.NewMHz("base", 500, 0)
	ca := clock.Plesiochronous(base, "ca", ppmA, 100)
	cb := clock.Plesiochronous(base, "cb", ppmB, 700)
	cr := clock.Plesiochronous(base, "cr", ppmR, 1300)

	chAtoR := NewChannel("a>r", 2*base.Period)
	chRtoB := NewChannel("r>b", 2*base.Period)
	chBtoR := NewChannel("b>r", 2*base.Period)
	chRtoA := NewChannel("r>a", 2*base.Period)

	// Table: A injects conn 1 in slots 0,2 (of 4); B injects rev conn 2
	// in slot 1.
	ta := slots.NewTable(4)
	ta.Slots[0] = 1
	ta.Slots[2] = 1
	tb := slots.NewTable(4)
	tb.Slots[1] = 2

	// Paths: one router hop; at the router, A's traffic leaves on port
	// 1, B's on port 0.
	hdr1, _ := layout.Encode([]int{1}, 0, 0)
	hdr2, _ := layout.Encode([]int{0}, 0, 0)

	a := ni.New("A", ca, layout, ta, nil, nil)
	b := ni.New("B", cb, layout, tb, nil, nil)
	a.AddOutConn(ni.OutConnConfig{ID: 1, Headers: map[int]phit.Word{0: hdr1, 2: hdr1}, InitialCredits: 64, PairedIn: 2})
	b.AddInConn(ni.InConnConfig{ID: 1, QID: 0, CreditFor: 2})
	b.AddOutConn(ni.OutConnConfig{ID: 2, Headers: map[int]phit.Word{1: hdr2}, InitialCredits: 0, PairedIn: 1})
	a.AddInConn(ni.InConnConfig{ID: 2, QID: 0, CreditFor: 1})

	wa := New("wrap.A", ca, NewNIActor(a))
	wa.ConnectIn(0, chRtoA)
	wa.ConnectOut(0, chAtoR)
	wb := New("wrap.B", cb, NewNIActor(b))
	wb.ConnectIn(0, chRtoB)
	wb.ConnectOut(0, chBtoR)
	core := router.NewCore("R", 2, layout)
	wr := New("wrap.R", cr, NewRouterActor(core))
	wr.ConnectIn(0, chAtoR)
	wr.ConnectIn(1, chBtoR)
	wr.ConnectOut(0, chRtoA)
	wr.ConnectOut(1, chRtoB)

	eng.Add(wa)
	eng.Add(wb)
	eng.Add(wr)
	return &ring{eng: eng, a: a, b: b, wa: wa, wb: wb, wr: wr, base: base}
}

func TestWrapperDeliversPlesiochronous(t *testing.T) {
	r := buildRing(t, +300, -250, +120)
	for i := 0; i < 10; i++ {
		r.a.Offer(0, 1, phit.Meta{Seq: int64(i), Injected: 0})
	}
	r.eng.Run(3000 * r.base.Period)
	if got := r.b.InStats(1).Delivered; got != 10 {
		t.Fatalf("delivered %d of 10 across plesiochronous wrappers", got)
	}
	// Credits must have returned.
	if got := r.a.Credits(1); got < 55 {
		t.Errorf("credits %d of 64 after drain", got)
	}
}

// TestWrapperNoDeadlockWhenIdle: with no traffic at all, empty tokens
// keep every wrapper iterating — the Section VI reset/empty-token rule.
func TestWrapperNoDeadlockWhenIdle(t *testing.T) {
	r := buildRing(t, +400, -400, 0)
	r.eng.Run(600 * r.base.Period)
	// Every wrapper should have completed ~200 fires (600 cycles / 3),
	// minus start-up stalls.
	for _, w := range []*Wrapper{r.wa, r.wb, r.wr} {
		if w.Fires() < 150 {
			t.Errorf("%s fired only %d times in 200 flit cycles — stalled network", w.Name(), w.Fires())
		}
	}
}

// TestWrapperRateLimitedBySlowest: the network's iteration rate equals
// the slowest element's flit rate (paper Section VI-A).
func TestWrapperRateLimitedBySlowest(t *testing.T) {
	const slow = 50000 // 5% slow, dominates everything
	r := buildRing(t, 0, 0, slow)
	r.eng.Run(3000 * r.base.Period)
	fires := r.wa.Fires()
	// Slowest clock: period 2000*(1+0.05) = 2100 ps; 3000 base cycles =
	// 6 us -> 6e6/ (3*2100) = 952 iterations ideally.
	ideal := int64(3000*2000) / (3 * 2100)
	if fires > ideal+2 {
		t.Errorf("fast wrapper fired %d times, above the slowest-element rate %d", fires, ideal)
	}
	if fires < ideal-ideal/10 {
		t.Errorf("fires %d more than 10%% below the slowest-element rate %d — excessive stalling", fires, ideal)
	}
}

func TestWrapperStallsWithoutNeighbour(t *testing.T) {
	// A wrapper with a connected input that never produces tokens must
	// stall (after consuming the initial priming) rather than run free.
	eng := sim.New()
	base := clock.NewMHz("base", 500, 0)
	core := router.NewCore("R", 2, layout)
	w := New("w", base, NewRouterActor(core))
	dead := NewChannel("dead", 2*base.Period)
	out := NewChannel("out", 2*base.Period)
	w.ConnectIn(0, dead)
	w.ConnectOut(0, out)
	eng.Add(w)
	eng.Run(300 * base.Period)
	// Initial tokens allow InitialTokens fires... but the output
	// channel also fills (capacity 4, primed 2, nobody drains): fires
	// are bounded by both. Either way, far below free-running 100.
	if w.Fires() > int64(ChannelCapacity) {
		t.Errorf("wrapper fired %d times with a dead input", w.Fires())
	}
	if w.Stalled() == 0 {
		t.Error("wrapper never counted a stall")
	}
}

func TestChannelPrimedWithInitialTokens(t *testing.T) {
	ch := NewChannel("c", 100)
	if ch.Len() != InitialTokens {
		t.Errorf("channel primed with %d tokens, want %d", ch.Len(), InitialTokens)
	}
	if !ch.Valid(0) {
		t.Error("primed tokens not immediately visible")
	}
	tok := ch.Pop(0)
	if !tok.Empty() {
		t.Error("primed token not empty")
	}
}

func TestActorAdapters(t *testing.T) {
	core := router.NewCore("R", 3, layout)
	ra := NewRouterActor(core)
	if ra.Ports() != 3 || ra.ActorName() != "R" {
		t.Error("router actor identity")
	}
	// Every output token starts stale and must come back overwritten.
	stale := phit.Flit{{Valid: true, Data: 99}}
	var in phit.Flit
	out := []phit.Flit{stale, stale, stale}
	ra.Fire(0, []*phit.Flit{&in, &in, &in}, []*phit.Flit{&out[0], &out[1], &out[2]})
	for i, f := range out {
		if !f.Empty() {
			t.Errorf("idle router actor left %v on output %d", f, i)
		}
	}
	tb := slots.NewTable(2)
	n := ni.New("N", clock.NewMHz("c", 500, 0), layout, tb, nil, nil)
	na := NewNIActor(n)
	if na.Ports() != 1 || na.ActorName() != "N" {
		t.Error("NI actor identity")
	}
	out[0] = stale
	na.Fire(0, []*phit.Flit{&in}, []*phit.Flit{&out[0]})
	if !out[0].Empty() {
		t.Errorf("idle NI actor produced %v", out[0])
	}
}

// TestWrapperFireAllocatesNothing: two wrapped routers on their own clocks
// exchanging tokens over primed channels run without allocating — tokens
// are popped, switched and pushed in the channels' rings.
func TestWrapperFireAllocatesNothing(t *testing.T) {
	eng := sim.New()
	base := clock.NewMHz("base", 500, 0)
	ws := make([]*Wrapper, 2)
	for i := range ws {
		ck := clock.Plesiochronous(base, "ck", float64(100*i), clock.Duration(700*i))
		ws[i] = New("w", ck, NewRouterActor(router.NewCore("R", 2, layout)))
	}
	for i, w := range ws {
		ch := NewChannel("ch", 2*base.Period)
		w.ConnectOut(0, ch)
		ws[1-i].ConnectIn(0, ch) // port 1 stays unconnected on both sides
		eng.Add(w)
	}
	eng.Run(100 * base.Period)
	fired := ws[0].Fires()
	allocs := testing.AllocsPerRun(100, func() { eng.Run(eng.Now() + 30*base.Period) })
	if allocs != 0 {
		t.Errorf("wrapped routers allocate %.1f objects per 10 flit cycles, want 0", allocs)
	}
	if ws[0].Fires() < fired+900 {
		t.Errorf("wrapper fired %d times in 1000 flit cycles", ws[0].Fires()-fired)
	}
}
