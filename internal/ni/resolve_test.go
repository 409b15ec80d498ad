package ni

import (
	"math/rand"
	"testing"

	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/slots"
	"repro/internal/trace"
)

// TestUpdateIndicesMatchDivision: Update's incremental word and slot indices
// equal the ones divided out of the clock's edge index at every edge — on an
// undisturbed clock, across time jumps in both directions (replay shifts,
// resimulation) and across period and phase steps, including the steps that
// land the next edge exactly one old period after the last.
func TestUpdateIndicesMatchDivision(t *testing.T) {
	const tableSize = 7
	clk := clock.New("clk", 2000, 300)
	n := New("N", clk, layout, slots.NewTable(tableSize), nil, nil)
	rng := rand.New(rand.NewSource(11))
	now := clk.EdgeAt(0)
	check := func(what string) {
		t.Helper()
		n.Update(now)
		edge, ok := clk.EdgeIndex(now)
		if !ok {
			t.Fatalf("%s: %d ps is not an edge", what, now)
		}
		if w, s := int(edge%phit.FlitWords), int(edge/phit.FlitWords%tableSize); n.word != w || n.slot != s {
			t.Fatalf("%s at edge %d: word %d slot %d, want word %d slot %d", what, edge, n.word, n.slot, w, s)
		}
	}
	check("first edge")
	for i := 0; i < 50000; i++ {
		switch r := rng.Intn(200); {
		case r == 0: // jump ahead by whole edges
			now += clock.Time(2+rng.Intn(1000)) * clk.Period
			check("jump ahead")
		case r == 1: // rewind
			edge, _ := clk.EdgeIndex(now)
			now = clk.EdgeAt(rng.Int63n(edge + 1))
			check("rewind")
		case r == 2: // period step; the next edge is wherever the new clock puts it
			clk.Period = clock.Duration(1990 + rng.Intn(21))
			now = clk.NextEdge(now)
			check("period step")
		case r == 3: // period step that keeps the next edge one old period on
			next := now + clk.Period
			clk.Period = clock.Duration(1990 + rng.Intn(21))
			clk.Phase = next % clk.Period
			now = next
			check("period step, same next edge")
		case r == 4: // period halved or doubled under an unmoved phase: the old next edge is still an edge
			edge, _ := clk.EdgeIndex(now)
			next := now + clk.Period
			if clk.Period > 1500 && clk.Period%2 == 0 {
				clk.Period /= 2
			} else if clk.Period <= 1500 && (edge+1)%2 == 0 {
				clk.Period *= 2
			}
			now = next
			check("period halved or doubled")
		case r == 5: // phase left unnormalised by a whole period: same edges, indices one lower
			clk.Phase += clk.Period
			now += clk.Period
			check("phase step by one period")
			clk.Phase -= clk.Period
			now += clk.Period
			check("phase step back")
		default:
			now += clk.Period
			check("next edge")
		}
	}
}

// TestSlotEntryFollowsTheTable: the per-slot cache names the slot's current
// owner and the header of the path that slot was reserved on, whoever
// rewrites the live table and whenever the owner is registered.
func TestSlotEntryFollowsTheTable(t *testing.T) {
	hdr := func(qid int) phit.Word {
		h, err := layout.Encode(nil, qid, 0)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	table := slots.NewTable(4)
	n := New("N", clock.NewMHz("clk", 500, 0), layout, table, nil, nil)
	n.AddOutConn(OutConnConfig{ID: 5, Headers: map[int]phit.Word{0: hdr(1), 2: hdr(2)}})
	n.AddOutConn(OutConnConfig{ID: 3, Headers: map[int]phit.Word{2: hdr(3)}})
	expect := func(slot int, owner phit.ConnID, h phit.Word) {
		t.Helper()
		e := n.slotEntry(slot)
		if e.owner != owner {
			t.Fatalf("slot %d: owner %d, want %d", slot, e.owner, owner)
		}
		if owner == phit.None {
			if e.oc != nil {
				t.Fatalf("slot %d: unowned but resolved to connection %d", slot, e.oc.cfg.ID)
			}
			return
		}
		if e.oc == nil || e.oc.cfg.ID != owner || e.hdr != h {
			t.Fatalf("slot %d: entry %+v, want connection %d header %#x", slot, e, owner, h)
		}
	}
	table.Slots[0], table.Slots[2] = 5, 5
	expect(0, 5, hdr(1))
	expect(1, phit.None, 0)
	expect(2, 5, hdr(2)) // each slot has its own header
	table.Slots[2] = 3
	expect(2, 3, hdr(3))
	table.Slots[2] = phit.None
	expect(2, phit.None, 0)
	table.Slots[2] = 5
	expect(2, 5, hdr(2))

	// An owner nobody registered panics on every use, not only the first.
	table.Slots[1] = 9
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("use %d of a slot owned by an unregistered connection did not panic", i)
				}
			}()
			n.slotEntry(1)
		}()
	}
	n.AddOutConn(OutConnConfig{ID: 9, Headers: map[int]phit.Word{1: hdr(4)}})
	expect(1, 9, hdr(4))
}

// TestOfferDoesNotAllocate pins the per-word injection path — lookup, FIFO
// push, Inject event — at zero allocations once the FIFO has its capacity.
func TestOfferDoesNotAllocate(t *testing.T) {
	p := newPair(t, 4, []int{0, 2}, []int{1}, 16)
	bus := trace.NewBus()
	events := &countSink{}
	bus.Attach(events)
	p.a.SetTracer(bus.Emitter("A"))
	for _, id := range []phit.ConnID{9, 4, 7, 12} { // a few more ids to search among
		p.a.AddOutConn(OutConnConfig{ID: id})
	}
	p.offer(t, SendCapacity) // grow the FIFO to its capacity once
	p.cycles(400)
	if space := p.a.SendQueueSpace(1); space != SendCapacity {
		t.Fatalf("FIFO not drained: %d free", space)
	}
	seq := int64(SendCapacity)
	allocs := testing.AllocsPerRun(SendCapacity-1, func() {
		if !p.a.Offer(p.eng.Now(), 1, phit.Meta{Seq: seq, Injected: p.eng.Now()}) {
			t.Fatal("Offer rejected with space in the FIFO")
		}
		seq++
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per Offer", allocs)
	}
	if events.n == 0 {
		t.Fatal("no Inject event reached the bus")
	}
}

type countSink struct{ n int }

func (c *countSink) Event(trace.Event) { c.n++ }
