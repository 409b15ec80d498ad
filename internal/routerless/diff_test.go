package routerless

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/phit"
	"repro/internal/spec"
	"repro/internal/trace"
)

// randomRing hand-builds a traced ring of S stops whose slot ownership is
// drawn from seed: up to S/2+1 connections between random distinct stops,
// each owning a random handful of the slots still free. Two calls with the
// same arguments give twins.
func randomRing(S int, seed int64) (*ring, *recSink) {
	rng := rand.New(rand.NewSource(seed))
	net := &Network{base: clock.NewMHz("clk", 500, 0)}
	r := &ring{name: "t", net: net, S: S,
		stops: make([]*stop, S), wheel: make([]entry, S), owner: make([]*connInfo, S)}
	log := &recSink{}
	bus := trace.NewBus()
	bus.Attach(log)
	for p := range r.stops {
		r.stops[p] = &stop{name: fmt.Sprintf("t.s%d", p), pos: p}
		r.stops[p].tr = bus.Emitter(r.stops[p].name)
	}
	free := rng.Perm(S)
	for id := 1; id <= S/2+1 && len(free) > 0; id++ {
		ci := &connInfo{spec: spec.Connection{ID: phit.ConnID(id)}, ring: r,
			srcPos: rng.Intn(S), q: make([]pending, 0, SendCapacity)}
		ci.dstPos = (ci.srcPos + 1 + rng.Intn(S-1)) % S
		k := 1 + rng.Intn(min(len(free), 4))
		for _, sid := range free[:k] {
			r.owner[sid] = ci
		}
		free = free[k:]
		r.conns = append(r.conns, ci)
	}
	r.buildVisits()
	return r, log
}

// diffRings compares everything a ring and its connections hold; the latency
// histograms only when final is set.
func diffRings(o, n *ring, final bool) error {
	if o.rot != n.rot {
		return fmt.Errorf("rot: old %d, new %d", o.rot, n.rot)
	}
	for sid := range o.wheel {
		a, b := &o.wheel[sid], &n.wheel[sid]
		if a.n != b.n || a.words != b.words || (a.n > 0 && a.ci.spec.ID != b.ci.spec.ID) {
			return fmt.Errorf("slot %d: old %d words %v, new %d words %v", sid, a.n, a.words, b.n, b.words)
		}
	}
	for i, a := range o.conns {
		b := n.conns[i]
		if !slices.Equal(a.q, b.q) {
			return fmt.Errorf("conn %d queue: old %v, new %v", a.spec.ID, a.q, b.q)
		}
		if a.rx.Delivered != b.rx.Delivered || a.rx.FirstAt != b.rx.FirstAt || a.rx.LastAt != b.rx.LastAt ||
			final && !reflect.DeepEqual(&a.rx.Latency, &b.rx.Latency) {
			return fmt.Errorf("conn %d: delivered %d vs %d, or span or latency histogram differ",
				a.spec.ID, a.rx.Delivered, b.rx.Delivered)
		}
	}
	return nil
}

// runTwins steps an old-Update ring and its visit-table twin through the
// instants step yields, with the same random offers, and compares state
// after every instant and the whole event stream at the end.
func runTwins(t *testing.T, S int, seed int64, instants int, step func(rng *rand.Rand) int64) {
	t.Helper()
	o, oLog := randomRing(S, seed)
	n, nLog := randomRing(S, seed)
	rng := rand.New(rand.NewSource(seed + 1000))
	period := o.net.base.Period
	var cycle, seq int64
	for i := 0; i < instants; i++ {
		cycle += step(rng)
		now := clock.Time(cycle) * period
		for _, ci := range o.conns {
			if rng.Intn(3) == 0 {
				seq++
				if a, b := o.Offer(now, ci.spec.ID, phit.Meta{Seq: seq}), n.Offer(now, ci.spec.ID, phit.Meta{Seq: seq}); a != b {
					t.Fatalf("S=%d cycle %d: offer on conn %d accepted old %v, new %v", S, cycle, ci.spec.ID, a, b)
				}
			}
		}
		o.oldUpdate(now)
		n.Update(now)
		if err := diffRings(o, n, i == instants-1); err != nil {
			t.Fatalf("S=%d cycle %d: %v", S, cycle, err)
		}
	}
	if oLog.buf.String() != nLog.buf.String() {
		t.Fatalf("S=%d: trace streams differ (%d vs %d bytes)", S, oLog.buf.Len(), nLog.buf.Len())
	}
	var delivered int64
	for _, ci := range n.conns {
		delivered += ci.rx.Delivered
	}
	if delivered == 0 {
		t.Errorf("S=%d: the ring delivered nothing in %d instants", S, instants)
	}
}

// TestVisitTableMatchesFullScan: ring sizes 2..64, random slot ownership,
// random offers, a dozen revolutions of consecutive edges each.
func TestVisitTableMatchesFullScan(t *testing.T) {
	for S := 2; S <= 64; S++ {
		runTwins(t, S, int64(S), 12*S*phit.FlitWords, func(*rand.Rand) int64 { return 1 })
	}
}

// TestRingUpdateAtNonConsecutiveInstants: an Update that is not one period
// after the last one re-derives the word within the flit by division, as
// every Update used to.
func TestRingUpdateAtNonConsecutiveInstants(t *testing.T) {
	for _, S := range []int{2, 5, 16} {
		runTwins(t, S, int64(100+S), 4000, func(rng *rand.Rand) int64 {
			if rng.Intn(4) == 0 {
				return 1 + int64(rng.Intn(7))
			}
			return 1
		})
	}
}

// TestIdleRingVisitsOnlyOwnedSlots: on the built 4x4 overlay with 24
// connections a revolution of every ring looks at two stops per owned slot —
// its owner's source and destination — instead of at every stop for every
// slot.
func TestIdleRingVisitsOnlyOwnedSlots(t *testing.T) {
	m, uc := testCase(t, 4, 4, 24, 7)
	n, err := Build(m, uc, core.Config{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	totalOwned := 0
	for _, r := range n.rings {
		owned, visits := 0, 0
		for _, ci := range r.owner {
			if ci != nil {
				owned++
			}
		}
		for _, vs := range r.visits {
			visits += len(vs)
		}
		if visits != 2*owned {
			t.Errorf("ring %s: %d visits per revolution for %d owned slots, want %d (a full scan probes %d)",
				r.name, visits, owned, 2*owned, r.S*r.S)
		}
		totalOwned += owned
	}
	if totalOwned < 24 {
		t.Errorf("the overlay owns %d slots for 24 connections", totalOwned)
	}
}
