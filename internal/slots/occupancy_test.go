package slots

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/phit"
	"repro/internal/route"
	"repro/internal/topology"
)

// stateDiff compares two allocations by content: assignments deeply, and
// the occupancy table link by link, where a link nobody ever claimed and a
// link whose claims were all released are the same thing. It returns "" when
// they agree.
func stateDiff(a, b *Allocation) string {
	if a.TableSize != b.TableSize {
		return fmt.Sprintf("table size %d vs %d", a.TableSize, b.TableSize)
	}
	if !reflect.DeepEqual(a.ByConn, b.ByConn) {
		return "ByConn differs"
	}
	for l := 0; l < len(a.links) || l < len(b.links); l++ {
		ra, rb := a.row(topology.LinkID(l)), b.row(topology.LinkID(l))
		if ra == nil {
			ra, rb = rb, ra
		}
		switch {
		case ra == nil:
		case rb == nil:
			if ra.used != 0 || !reflect.DeepEqual(ra.owner, make([]phit.ConnID, a.TableSize)) ||
				!reflect.DeepEqual(ra.busy, make([]uint64, a.maskWords())) {
				return fmt.Sprintf("link %d: claims on one side only", l)
			}
		case !reflect.DeepEqual(*ra, *rb):
			return fmt.Sprintf("link %d: %+v vs %+v", l, *ra, *rb)
		}
	}
	return ""
}

// TestQueriesDoNotMutate: a missing occupancy row reads as free, and no
// read path creates one.
func TestQueriesDoNotMutate(t *testing.T) {
	m := topology.NewMesh(3, 3, 1)
	paths, err := route.Candidates(m, m.NIAt(0, 0, 0), m.NIAt(2, 2, 0), 6)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAllocation(16)
	req := Request{Conn: 1, Paths: paths, Count: 2}
	for _, p := range paths {
		for s := 0; s < 2*a.TableSize; s++ {
			if !a.SlotFree(p, s) {
				t.Fatalf("slot %d busy on an empty allocation", s)
			}
		}
		for _, h := range p.Links {
			if a.LinkOwner(h.Link, 3) != phit.None || a.LinkUtilisation(h.Link) != 0 {
				t.Fatalf("link %d occupied on an empty allocation", h.Link)
			}
		}
	}
	if pe := placementError(a, req); !strings.Contains(pe.Detail, "16 joint-free slots") {
		t.Errorf("placementError on an empty table: %s", pe.Detail)
	}
	if b := blockers(a, req, map[phit.ConnID]bool{1: true}); len(b) != 0 {
		t.Errorf("blockers on an empty table: %v", b)
	}
	if asg := placeRequest(a, req); asg == nil {
		t.Error("placeRequest found nothing on an empty table")
	}
	if err := a.Verify(); err != nil {
		t.Error(err)
	}
	a.scratch = scratch{} // working memory, not state
	if want := NewAllocation(16); !reflect.DeepEqual(a, want) {
		t.Errorf("queries mutated a fresh allocation: %+v", a)
	}
}

// TestFreeMaskMatchesSlotFree holds the rotate-and-OR free mask against
// the per-slot probe on loaded tables of every size class: single word,
// word-aligned multiword, and sizes that are not a multiple of 64, with
// shifts past the table size.
func TestFreeMaskMatchesSlotFree(t *testing.T) {
	m := topology.NewMesh(5, 5, 1)
	rng := rand.New(rand.NewSource(11))
	for _, size := range []int{1, 5, 8, 12, 63, 64, 65, 96, 128, 192, 200, 256, 300} {
		a := NewAllocation(size)
		var paths []*route.Path
		for i := 0; i < 60; i++ {
			src := m.NIAt(rng.Intn(5), rng.Intn(5), 0)
			dst := m.NIAt(rng.Intn(5), rng.Intn(5), 0)
			if m.Node(src).Router == m.Node(dst).Router {
				continue
			}
			ps, err := route.Candidates(m, src, dst, 6)
			if err != nil {
				t.Fatal(err)
			}
			paths = append(paths, ps...)
			p := ps[rng.Intn(len(ps))]
			if s := rng.Intn(size); a.SlotFree(p, s) {
				a.Claim(phit.ConnID(i+1), p, s)
			}
		}
		mask := make([]uint64, a.maskWords())
		for _, p := range paths {
			a.freeMask(p, mask)
			for s := 0; s < len(mask)*64; s++ {
				got := mask[s/64]>>uint(s%64)&1 != 0
				want := s < size && a.SlotFree(p, s)
				if got != want {
					t.Fatalf("table %d, %v, slot %d: mask says free=%v, SlotFree says %v", size, p, s, got, want)
				}
			}
		}
	}
}

// TestRipUpRollbackRestoresState: a rejected repair — victims released, the
// blocked request and perhaps some victims placed, then undone — leaves the
// assignments, the occupancy and the counters as a clone taken before.
func TestRipUpRollbackRestoresState(t *testing.T) {
	rejected, undone := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		reqs := randomRequests(t, seed, 60)
		a := NewAllocation(8)
		reqOf := make(map[phit.ConnID]Request)
		rippable := make(map[phit.ConnID]bool)
		var failed []Request
		for _, idx := range requestOrder(reqs) {
			req := reqs[idx]
			asg := placeRequest(a, req)
			if asg == nil {
				failed = append(failed, req)
				continue
			}
			commitAssignment(a, req, asg)
			reqOf[req.Conn], rippable[req.Conn] = req, true
		}
		for _, req := range failed {
			before := a.Clone()
			victims := blockers(a, req, rippable)
			if ripUpRepair(a, req, reqOf, rippable) {
				reqOf[req.Conn], rippable[req.Conn] = req, true
				if err := a.Verify(); err != nil {
					t.Fatalf("seed %d: adopted repair for %d: %v", seed, req.Conn, err)
				}
				continue
			}
			rejected++
			if len(victims) > 0 {
				undone++
			}
			if d := stateDiff(before, a); d != "" {
				t.Fatalf("seed %d: rejected repair for connection %d changed the allocation: %s", seed, req.Conn, d)
			}
			if err := a.Verify(); err != nil {
				t.Fatalf("seed %d: after rejected repair for %d: %v", seed, req.Conn, err)
			}
		}
	}
	if rejected == 0 || undone == 0 {
		t.Fatalf("workload exercised %d rejected repairs, %d with victims to restore; want both > 0", rejected, undone)
	}
}

// TestClaimReleaseCloneRandom drives a random sequence of claims, releases
// and clones: the used counter of every link always equals a recount (and
// the bitset the owner row — Verify checks both), and a clone is unaffected
// by what happens to its origin afterwards, and vice versa.
func TestClaimReleaseCloneRandom(t *testing.T) {
	m := topology.NewMesh(4, 4, 1)
	rng := rand.New(rand.NewSource(2009))
	const size = 24
	a := NewAllocation(size)
	var frozen, frozenCopy *Allocation
	next := phit.ConnID(1)
	recount := func(x *Allocation) {
		t.Helper()
		for l := range x.links {
			r := x.row(topology.LinkID(l))
			if r == nil {
				continue
			}
			n := 0
			for _, c := range r.owner {
				if c != phit.None {
					n++
				}
			}
			if r.used != n || x.LinkUtilisation(topology.LinkID(l)) != float64(n)/size {
				t.Fatalf("link %d: used %d, recount %d", l, r.used, n)
			}
		}
		if err := x.Verify(); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(10); {
		case op < 6: // claim a new connection's slots
			src := m.NIAt(rng.Intn(4), rng.Intn(4), 0)
			dst := m.NIAt(rng.Intn(4), rng.Intn(4), 0)
			if m.Node(src).Router == m.Node(dst).Router {
				continue
			}
			paths, err := route.Candidates(m, src, dst, 4)
			if err != nil {
				t.Fatal(err)
			}
			req := Request{Conn: next, Paths: paths, Count: 1 + rng.Intn(3)}
			if asg := placeRequest(a, req); asg != nil {
				commitAssignment(a, req, asg)
				next++
			}
		case op < 9: // release a random live connection
			if live := a.Conns(); len(live) > 0 {
				a.Release(live[rng.Intn(len(live))])
			}
		default: // clone, and check the previous clone never moved
			if frozen != nil {
				if d := stateDiff(frozen, frozenCopy); d != "" {
					t.Fatalf("step %d: a clone changed after its origin did: %s", step, d)
				}
				// Mutating the clone must not reach the origin either.
				before := a.Clone()
				for _, c := range frozen.Conns() {
					frozen.Release(c)
				}
				if d := stateDiff(before, a); d != "" {
					t.Fatalf("step %d: releasing in a clone changed its origin: %s", step, d)
				}
				recount(frozen)
			}
			frozen = a.Clone()
			frozenCopy = frozen.Clone()
			if d := stateDiff(a, frozen); d != "" {
				t.Fatalf("step %d: clone differs from origin: %s", step, d)
			}
		}
		if step%50 == 0 {
			recount(a)
		}
	}
	recount(a)
}
