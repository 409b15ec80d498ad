package ni

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/slots"
	"repro/internal/trace"
)

var layout = phit.DefaultLayout

// pair wires two NIs directly together (no routers, empty paths): A sends
// data connection 1 to B; B returns credits on connection 2.
type pair struct {
	eng  *sim.Engine
	clk  *clock.Clock
	a, b *NI
}

// newPair builds the harness. aSlots/bSlots pick the injection slots of
// connection 1 (at A) and the reverse connection 2 (at B) in a table of
// size tableSize. recvCap is A's initial credit count for connection 1.
func newPair(t *testing.T, tableSize int, aSlots, bSlots []int, recvCap int) *pair {
	t.Helper()
	eng := sim.New()
	clk := clock.NewMHz("clk", 500, 0)
	ab := sim.NewWire[phit.Phit]("a>b")
	ba := sim.NewWire[phit.Phit]("b>a")
	eng.AddWire(ab)
	eng.AddWire(ba)

	ta := slots.NewTable(tableSize)
	for _, s := range aSlots {
		ta.Slots[s] = 1
	}
	tb := slots.NewTable(tableSize)
	for _, s := range bSlots {
		tb.Slots[s] = 2
	}
	a := New("A", clk, layout, ta, ba, ab)
	b := New("B", clk, layout, tb, ab, ba)

	hdr1, err := layout.Encode(nil, 0, 0) // qid 0 at B
	if err != nil {
		t.Fatal(err)
	}
	hdr2, err := layout.Encode(nil, 0, 0) // qid 0 at A
	if err != nil {
		t.Fatal(err)
	}
	a.AddOutConn(OutConnConfig{ID: 1, Headers: slotHeaders(hdr1, aSlots...), InitialCredits: recvCap, PairedIn: 2})
	b.AddInConn(InConnConfig{ID: 1, QID: 0, CreditFor: 2})
	b.AddOutConn(OutConnConfig{ID: 2, Headers: slotHeaders(hdr2, bSlots...), InitialCredits: 0, PairedIn: 1})
	a.AddInConn(InConnConfig{ID: 2, QID: 0, CreditFor: 1})

	eng.Add(a)
	eng.Add(b)
	return &pair{eng: eng, clk: clk, a: a, b: b}
}

// slotHeaders gives every one of slots the header h.
func slotHeaders(h phit.Word, slots ...int) map[int]phit.Word {
	m := make(map[int]phit.Word, len(slots))
	for _, s := range slots {
		m[s] = h
	}
	return m
}

func (p *pair) cycles(n int64) { p.eng.Run(p.eng.Now() + clock.Time(n)*p.clk.Period) }

// eventLog is a trace.Sink that keeps every event.
type eventLog struct{ evs []trace.Event }

func (l *eventLog) Event(ev trace.Event) { l.evs = append(l.evs, ev) }

// trace attaches one bus to both NIs, with a metrics sink and an event log.
func (p *pair) trace() (*trace.Metrics, *eventLog) {
	bus := trace.NewBus()
	log := &eventLog{}
	bus.Attach(log)
	p.a.SetTracer(bus.Emitter("A"))
	p.b.SetTracer(bus.Emitter("B"))
	return trace.NewMetrics(bus), log
}

func (p *pair) offer(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if !p.a.Offer(p.eng.Now(), 1, phit.Meta{Seq: int64(i), Injected: p.eng.Now()}) {
			t.Fatalf("Offer %d rejected", i)
		}
	}
}

func TestNIDeliversPayload(t *testing.T) {
	p := newPair(t, 4, []int{0, 2}, []int{1}, 16)
	mx, _ := p.trace()
	p.offer(t, 5)
	p.cycles(40)
	st := p.b.InStats(1)
	if st.Delivered != 5 {
		t.Fatalf("delivered %d, want 5", st.Delivered)
	}
	if got := mx.Conn(1).Sent; got != 5 {
		t.Errorf("sent %d words", got)
	}
	if st.Latency.Min() <= 0 {
		t.Errorf("latency min = %v", st.Latency.Min())
	}
}

func TestNIInjectsOnlyInOwnedSlots(t *testing.T) {
	p := newPair(t, 8, []int{3}, []int{6}, 16)
	// Watch the wire: valid phits may only appear in slot 3 (+ the
	// drive pipeline offset).
	p.offer(t, 2)
	for i := 0; i < 80; i++ {
		p.cycles(1)
		// The NI drives during edge n; the wire holds it for samplers
		// at n+1. Reconstruct the drive edge.
		n, _ := p.clk.EdgeIndex(p.eng.Now())
		w := p.aOut().Read()
		if w.Valid && w.Meta.Conn == 1 {
			drive := n
			slot := int(drive / 3 % 8)
			if slot != 3 {
				t.Fatalf("connection 1 phit driven in slot %d", slot)
			}
		}
	}
}

// aOut digs the output wire out of the engine (test helper).
func (p *pair) aOut() *sim.Wire[phit.Phit] { return p.a.out }

func TestNIPacketisationPadding(t *testing.T) {
	// One word offered: flit = header + payload + padding with EoP.
	p := newPair(t, 4, []int{0}, []int{2}, 16)
	col := fault.NewCollector()
	p.b.SetReporter(col)
	p.offer(t, 1)
	var seen []phit.Phit
	for i := 0; i < 30; i++ {
		p.cycles(1)
		w := p.aOut().Read()
		if w.Valid && w.Meta.Conn == 1 {
			seen = append(seen, w)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("flit had %d words, want 3 (padded)", len(seen))
	}
	if seen[0].Kind != phit.Header || seen[1].Kind != phit.Payload || seen[2].Kind != phit.Padding {
		t.Fatalf("flit kinds: %v %v %v", seen[0].Kind, seen[1].Kind, seen[2].Kind)
	}
	if !seen[2].EoP {
		t.Error("EoP missing on the final (padding) word")
	}
	// The receiver takes the padding word as the packet's end: one word
	// delivered, and no protocol break reported.
	if got := p.b.InStats(1).Delivered; got != 1 {
		t.Errorf("delivered %d words, want 1", got)
	}
	if col.Total() != 0 {
		t.Errorf("%d violations reported, first %v", col.Total(), col.Violations()[0])
	}
}

func TestNIHeaderElision(t *testing.T) {
	// Adjacent slots 1,2: a backlog spanning both should send
	// header+2 in slot 1 and 3 payload words (no header) in slot 2.
	p := newPair(t, 4, []int{1, 2}, []int{0}, 32)
	p.offer(t, 5)
	var kinds []phit.Kind
	for i := 0; i < 40 && len(kinds) < 6; i++ {
		p.cycles(1)
		w := p.aOut().Read()
		if w.Valid && w.Meta.Conn == 1 {
			kinds = append(kinds, w.Kind)
		}
	}
	want := []phit.Kind{phit.Header, phit.Payload, phit.Payload, phit.Payload, phit.Payload, phit.Payload}
	if len(kinds) != len(want) {
		t.Fatalf("saw %d words: %v", len(kinds), kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("word %d is %v, want %v (elided continuation)", i, kinds[i], want[i])
		}
	}
	p.cycles(10) // let the last words land
	if st := p.b.InStats(1); st.Delivered != 5 {
		t.Errorf("delivered %d", st.Delivered)
	}
}

func TestNICreditStallAndReturn(t *testing.T) {
	// recvCap 3: A can send only one flit's payload (2 words, then 1)
	// before waiting for returns; with B's return slot in the loop the
	// full backlog still drains.
	p := newPair(t, 4, []int{0}, []int{2}, 3)
	p.offer(t, 9)
	p.cycles(200)
	st := p.b.InStats(1)
	if st.Delivered != 9 {
		t.Fatalf("delivered %d of 9 with tight credits", st.Delivered)
	}
	if got := p.a.Credits(1); got < 0 || got > 3 {
		t.Errorf("credits %d out of [0,3]", got)
	}
}

func TestNICreditExhaustionBlocks(t *testing.T) {
	// B owns no slots, so credits can never return: A must send exactly
	// its initial window (3 words) and then stall, counting blocked
	// flit opportunities — end-to-end flow control protecting B's
	// 3-word queue.
	p := newPair(t, 4, []int{0}, nil, 3)
	mx, _ := p.trace()
	p.offer(t, 9)
	p.cycles(200)
	if got := p.b.InStats(1).Delivered; got != 3 {
		t.Fatalf("delivered %d, want exactly the 3-word credit window", got)
	}
	if mx.Conn(1).Blocked == 0 {
		t.Error("sender never counted a blocked flit")
	}
	if got := p.a.Credits(1); got != 0 {
		t.Errorf("credits = %d, want 0", got)
	}
}

func TestNICreditOnlyPackets(t *testing.T) {
	// B owes credits but has no data: it must emit CreditOnly headers.
	p := newPair(t, 4, []int{0}, []int{2}, 6)
	p.offer(t, 6)
	sawCreditOnly := false
	for i := 0; i < 120; i++ {
		p.cycles(1)
		w := p.b.out.Read()
		if w.Valid && w.Kind == phit.CreditOnly {
			sawCreditOnly = true
		}
	}
	if !sawCreditOnly {
		t.Error("no credit-only packet on the reverse connection")
	}
	if got := p.a.Credits(1); got != 6 {
		t.Errorf("credits not fully returned: %d of 6", got)
	}
}

func TestNIOfferBlocksWhenFull(t *testing.T) {
	p := newPair(t, 4, []int{0}, []int{2}, 64)
	n := 0
	for p.a.Offer(0, 1, phit.Meta{Seq: int64(n)}) {
		n++
		if n > SendCapacity {
			t.Fatalf("Offer accepted %d words beyond capacity", n)
		}
	}
	if n != SendCapacity {
		t.Errorf("accepted %d, want %d", n, SendCapacity)
	}
	if got := p.a.SendQueueSpace(1); got != 0 {
		t.Errorf("SendQueueSpace = %d", got)
	}
}

func TestNIResetStats(t *testing.T) {
	p := newPair(t, 4, []int{0}, []int{2}, 16)
	p.offer(t, 3)
	p.cycles(40)
	p.a.ResetStats()
	p.b.ResetStats()
	if got := p.b.InStats(1).Delivered; got != 0 {
		t.Errorf("Delivered after reset = %d", got)
	}
	if got := p.b.InStats(1).Latency.N(); got != 0 {
		t.Errorf("%d latency samples after reset", got)
	}
}

// TestNIArrivalRecording: every delivered word is one Eject on the bus,
// stamped with its arrival instant, in arrival order.
func TestNIArrivalRecording(t *testing.T) {
	p := newPair(t, 4, []int{0}, []int{2}, 16)
	_, log := p.trace()
	p.offer(t, 3)
	p.cycles(40)
	var arr []clock.Time
	for _, ev := range log.evs {
		if ev.Kind == trace.Eject && ev.Conn == 1 {
			arr = append(arr, ev.Time)
		}
	}
	if len(arr) != 3 {
		t.Fatalf("recorded %d arrivals", len(arr))
	}
	for i := 1; i < len(arr); i++ {
		if arr[i] <= arr[i-1] {
			t.Error("arrivals not strictly increasing")
		}
	}
}

func TestNIPanics(t *testing.T) {
	clk := clock.NewMHz("clk", 500, 0)
	tb := slots.NewTable(4)
	for name, f := range map[string]func(){
		"bad layout": func() { New("x", clk, phit.HeaderLayout{}, tb, nil, nil) },
		"zero conn": func() {
			New("x", clk, layout, tb, nil, nil).AddOutConn(OutConnConfig{ID: 0})
		},
		"dup out": func() {
			n := New("x", clk, layout, tb, nil, nil)
			n.AddOutConn(OutConnConfig{ID: 1})
			n.AddOutConn(OutConnConfig{ID: 1})
		},
		"dup qid": func() {
			n := New("x", clk, layout, tb, nil, nil)
			n.AddInConn(InConnConfig{ID: 1, QID: 0})
			n.AddInConn(InConnConfig{ID: 2, QID: 0})
		},
		"qid range": func() {
			New("x", clk, layout, tb, nil, nil).AddInConn(InConnConfig{ID: 1, QID: 99})
		},
		"unknown out": func() {
			New("x", clk, layout, tb, nil, nil).Offer(0, 7, phit.Meta{})
		},
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

func TestNIStepFlitWrapperMode(t *testing.T) {
	clk := clock.NewMHz("clk", 500, 0)
	tb := slots.NewTable(2)
	tb.Slots[0] = 1
	n := New("w", clk, layout, tb, nil, nil)
	hdr, _ := layout.Encode(nil, 0, 0)
	n.AddOutConn(OutConnConfig{ID: 1, Headers: slotHeaders(hdr, 0), InitialCredits: 8})
	n.Offer(0, 1, phit.Meta{Seq: 1, Injected: 0})
	n.Offer(0, 1, phit.Meta{Seq: 2, Injected: 0})

	// Iteration 0 = slot 0 (owned): must carry the data.
	var in, out phit.Flit
	n.StepFlit(clk.Period*2, &in, &out)
	if out.Empty() {
		t.Fatal("owned slot produced an empty token")
	}
	if out[0].Kind != phit.Header || out[1].Meta.Seq != 1 || out[2].Meta.Seq != 2 {
		t.Fatalf("flit = %v %v %v", out[0], out[1], out[2])
	}
	// Iteration 1 = slot 1 (idle): empty token.
	n.StepFlit(clk.Period*5, &in, &out)
	if !out.Empty() {
		t.Fatalf("unowned slot produced %v", out)
	}
	// Engine updates must now panic.
	defer func() {
		if recover() == nil {
			t.Error("no panic for engine Update on a wrapped NI")
		}
	}()
	n.Update(clk.Period)
}

// TestNIResetStatsClearsReplayEpoch: a ResetStats landing between two
// ReplayMarks must drop the epoch log with the statistics, so no sample
// delivered before the reset can reach the fresh histogram through a
// later ReplayShift.
func TestNIResetStatsClearsReplayEpoch(t *testing.T) {
	p := newPair(t, 4, []int{0, 2}, []int{1}, 16)
	shift := &replay.Shift{Epochs: 3, DSeq: func(phit.ConnID) int64 { return 0 }}

	p.b.ReplayMark(p.eng.Now())
	p.offer(t, 4)
	p.cycles(40)
	p.b.ReplayMark(p.eng.Now()) // closes an epoch of four samples
	p.offer(t, 3)
	p.cycles(40) // three more, logged for the next epoch
	if got := p.b.InStats(1).Delivered; got != 7 {
		t.Fatalf("delivered %d before the reset, want 7", got)
	}

	p.b.ResetStats()
	p.offer(t, 2)
	p.cycles(40)
	if p.b.ReplayMark(p.eng.Now()) {
		t.Error("first mark after ResetStats reported a clean epoch")
	}
	p.b.ReplayShift(shift)
	if got := p.b.InStats(1).Latency.N(); got != 2 {
		t.Errorf("latency holds %d samples after reset, two deliveries and a shift, want 2", got)
	}

	// The log works as before once re-baselined: mark, one epoch, mark,
	// shift by three epochs.
	p.b.ReplayMark(p.eng.Now())
	p.offer(t, 5)
	p.cycles(40)
	p.b.ReplayMark(p.eng.Now())
	p.b.ReplayShift(shift)
	if got := p.b.InStats(1).Latency.N(); got != 2+5+3*5 {
		t.Errorf("latency holds %d samples, want %d", got, 2+5+3*5)
	}
}
