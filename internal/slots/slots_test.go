package slots

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/phit"
	"repro/internal/route"
	"repro/internal/topology"
)

func TestTableBasics(t *testing.T) {
	tb := NewTable(8)
	if tb.Size() != 8 {
		t.Fatalf("Size = %d", tb.Size())
	}
	tb.Slots[2] = 5
	tb.Slots[6] = 5
	tb.Slots[3] = 9
	if tb.Owner(2) != 5 || tb.Owner(10) != 5 {
		t.Error("Owner modulo failed")
	}
	got := tb.SlotsOf(5)
	if len(got) != 2 || got[0] != 2 || got[1] != 6 {
		t.Errorf("SlotsOf = %v", got)
	}
}

func TestNewTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for zero size")
		}
	}()
	NewTable(0)
}

func TestMaxGap(t *testing.T) {
	cases := []struct {
		slots []int
		size  int
		want  int
	}{
		{[]int{0, 4}, 8, 4},
		{[]int{0, 1}, 8, 7},
		{[]int{3}, 8, 8},
		{nil, 8, 8},
		{[]int{0, 2, 4, 6}, 8, 2},
	}
	for _, c := range cases {
		if got := MaxGap(c.slots, c.size); got != c.want {
			t.Errorf("MaxGap(%v, %d) = %d, want %d", c.slots, c.size, got, c.want)
		}
	}
}

func TestMaxGapWindow(t *testing.T) {
	// Slots 0,2,5 in table 8: gaps 2,3,3.
	s := []int{0, 2, 5}
	if got := MaxGapWindow(s, 8, 1); got != 3 {
		t.Errorf("window(1) = %d", got)
	}
	if got := MaxGapWindow(s, 8, 2); got != 6 {
		t.Errorf("window(2) = %d", got)
	}
	if got := MaxGapWindow(s, 8, 3); got != 8 {
		t.Errorf("window(3) = %d", got)
	}
	// m beyond the slot count wraps whole revolutions: 9 services on 3
	// slots cost 3 full revolutions.
	if got := MaxGapWindow(s, 8, 9); got != 24 {
		t.Errorf("window(9) = %d", got)
	}
	// 4 services: one revolution plus the worst single gap.
	if got := MaxGapWindow(s, 8, 4); got != 8+3 {
		t.Errorf("window(4) = %d", got)
	}
	if got := MaxGapWindow(nil, 8, 2); got != 16 {
		t.Errorf("window on empty = %d", got)
	}
}

func meshPaths(t *testing.T, m *topology.Mesh, a, b topology.NodeID) []*route.Path {
	t.Helper()
	paths, err := route.Candidates(m, a, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Only same-shift (minimal) candidates for these tests.
	var out []*route.Path
	for _, p := range paths {
		if p.TotalShift == paths[0].TotalShift {
			out = append(out, p)
		}
	}
	return out
}

func TestAllocateSimple(t *testing.T) {
	m := topology.NewMesh(2, 2, 1)
	a, b := m.NIAt(0, 0, 0), m.NIAt(1, 1, 0)
	c, d := m.NIAt(1, 0, 0), m.NIAt(0, 1, 0)
	reqs := []Request{
		{Conn: 1, Paths: meshPaths(t, m, a, b), Count: 3},
		{Conn: 2, Paths: meshPaths(t, m, c, d), Count: 2},
		{Conn: 3, Paths: meshPaths(t, m, b, a), Count: 1},
	}
	alloc, err := AllocateWith(Greedy{}, 8, reqs)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := alloc.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	for id, want := range map[phit.ConnID]int{1: 3, 2: 2, 3: 1} {
		if got := len(alloc.ByConn[id].Slots); got != want {
			t.Errorf("conn %d got %d slots, want %d", id, got, want)
		}
	}
	// NI tables reflect assignments.
	tb := alloc.NITable(a)
	if got := len(tb.SlotsOf(1)); got != 3 {
		t.Errorf("NI table has %d slots for conn 1", got)
	}
}

func TestAllocateRespectsGapTarget(t *testing.T) {
	m := topology.NewMesh(2, 1, 1)
	a, b := m.NIAt(0, 0, 0), m.NIAt(1, 0, 0)
	reqs := []Request{
		{Conn: 1, Paths: meshPaths(t, m, a, b), Count: 2, GapTarget: 4, WindowSlots: 1},
	}
	alloc, err := AllocateWith(Greedy{}, 16, reqs)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	asg := alloc.ByConn[1]
	if got := MaxGap(asg.Slots, 16); got > 4 {
		t.Errorf("MaxGap = %d exceeds target 4 (slots %v)", got, asg.Slots)
	}
	// Meeting gap 4 on a 16-slot table needs at least 4 slots.
	if len(asg.Slots) < 4 {
		t.Errorf("only %d slots cannot give gap <= 4", len(asg.Slots))
	}
}

func TestAllocateErrors(t *testing.T) {
	m := topology.NewMesh(2, 1, 1)
	a, b := m.NIAt(0, 0, 0), m.NIAt(1, 0, 0)
	paths := meshPaths(t, m, a, b)
	if _, err := AllocateWith(Greedy{}, 4, []Request{{Conn: 1, Paths: paths, Count: 0}}); err == nil {
		t.Error("accepted zero count")
	}
	if _, err := AllocateWith(Greedy{}, 4, []Request{{Conn: 1, Paths: paths, Count: 5}}); err == nil {
		t.Error("accepted count above table size")
	}
	if _, err := AllocateWith(Greedy{}, 4, []Request{
		{Conn: 1, Paths: paths, Count: 1},
		{Conn: 1, Paths: paths, Count: 1},
	}); err == nil {
		t.Error("accepted duplicate connection")
	}
	// Saturate the link, then ask for more.
	_, err := AllocateWith(Greedy{}, 4, []Request{
		{Conn: 1, Paths: paths, Count: 4},
		{Conn: 2, Paths: paths, Count: 1},
	})
	var pe *PlacementError
	if !errors.As(err, &pe) {
		t.Fatalf("want PlacementError, got %v", err)
	}
	if pe.Conn != 2 {
		t.Errorf("PlacementError.Conn = %d", pe.Conn)
	}
}

// TestContentionFreedomQuick is the core invariant: for random workloads
// that allocate successfully, Verify (an independent recomputation of
// per-link, per-slot occupancy) never finds a double booking, and the
// per-slot shift arithmetic never wraps incorrectly.
func TestContentionFreedomQuick(t *testing.T) {
	m := topology.NewMesh(3, 3, 2)
	nis := m.AllNIs()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(12)
		var reqs []Request
		for i := 0; i < n; i++ {
			a := nis[rng.Intn(len(nis))]
			b := nis[rng.Intn(len(nis))]
			if a == b || m.Node(a).Router == m.Node(b).Router {
				continue
			}
			paths, err := route.Candidates(m, a, b, 4)
			if err != nil {
				return false
			}
			reqs = append(reqs, Request{
				Conn:  phit.ConnID(i + 1),
				Paths: paths,
				Count: 1 + rng.Intn(4),
			})
		}
		alloc, err := AllocateWith(Greedy{}, 32, reqs)
		if err != nil {
			return true // infeasible workloads are fine; we check placed ones
		}
		return alloc.Verify() == nil
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(6))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLinkOwnerAndUtilisation(t *testing.T) {
	m := topology.NewMesh(2, 1, 1)
	a, b := m.NIAt(0, 0, 0), m.NIAt(1, 0, 0)
	paths := meshPaths(t, m, a, b)
	alloc, err := AllocateWith(Greedy{}, 8, []Request{{Conn: 7, Paths: paths, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	p := alloc.ByConn[7].Path
	s0 := alloc.ByConn[7].Slots[0]
	for _, h := range p.Links {
		lid, slot := h.Link, (s0+int(h.Shift))%8
		if got := alloc.LinkOwner(lid, slot); got != 7 {
			t.Errorf("link %d slot %d owner = %d", lid, slot, got)
		}
		if got := alloc.LinkUtilisation(lid); got != 0.25 {
			t.Errorf("utilisation = %v", got)
		}
	}
	if got := alloc.LinkOwner(p.Links[0].Link, (s0+1)%8); got == 7 && len(alloc.ByConn[7].Slots) == 2 &&
		alloc.ByConn[7].Slots[1] != (s0+1)%8 {
		t.Error("unclaimed slot reported owned")
	}
	// A link never allocated.
	var unused topology.LinkID = -1
	for _, l := range m.Links() {
		if alloc.LinkUtilisation(l.ID) == 0 {
			unused = l.ID
			break
		}
	}
	if unused != -1 && alloc.LinkOwner(unused, 0) != phit.None {
		t.Error("unused link has an owner")
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	m := topology.NewMesh(2, 1, 1)
	a, b := m.NIAt(0, 0, 0), m.NIAt(1, 0, 0)
	paths := meshPaths(t, m, a, b)
	alloc, err := AllocateWith(Greedy{}, 8, []Request{{Conn: 1, Paths: paths, Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Inject a second connection claiming the same slot behind the
	// allocator's back.
	asg := alloc.ByConn[1]
	alloc.ByConn[2] = &Assignment{Conn: 2, Path: asg.Path, Slots: append([]int(nil), asg.Slots...),
		PathOf: []*route.Path{asg.Path}}
	if err := alloc.Verify(); err == nil {
		t.Error("Verify missed a double booking")
	}
	delete(alloc.ByConn, 2)
	if err := alloc.Verify(); err != nil {
		t.Fatalf("restored allocation: %v", err)
	}

	// A stale claim: the assignment is gone but the live table still holds
	// its slots — what an undo path that forgot a release would leave.
	stale := alloc.Clone()
	delete(stale.ByConn, 1)
	if err := stale.Verify(); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Errorf("Verify missed a stale claim: %v", err)
	}
	// The mirror image: an assignment whose claims never reached the table.
	leaked := NewAllocation(8)
	leaked.ByConn[1] = asg
	if err := leaked.Verify(); err == nil {
		t.Error("Verify missed an assignment with no claims behind it")
	}
	// A used counter out of step with the owner row.
	miscounted := alloc.Clone()
	miscounted.links[asg.Path.Links[0].Link].used++
	if err := miscounted.Verify(); err == nil || !strings.Contains(err.Error(), "used counter") {
		t.Errorf("Verify missed a wrong used counter: %v", err)
	}
	// A bitset bit out of step with the owner row.
	flipped := alloc.Clone()
	flipped.links[asg.Path.Links[0].Link].busy[0] ^= 1 << uint((asg.Slots[0]+1)%8)
	if err := flipped.Verify(); err == nil || !strings.Contains(err.Error(), "occupancy bit") {
		t.Errorf("Verify missed a wrong occupancy bit: %v", err)
	}
}

// verifyRig is a 100-slot allocation (a full word and a 36-slot tail word)
// large enough for Verify to split into workers: connections lo+1 and lo+2
// ride p, which enters link at in the injection slot and link at+1 one slot
// later, in slots `slot` and 10; parallelVerify fillers, ids 100 up, ride
// links 10 up. With lo 0 and at 2, p's connections and links open the first
// ranges of both Verify passes; with lo 1<<20 and at past the fillers, they
// close the last.
func verifyRig(t *testing.T, lo phit.ConnID, at topology.LinkID, slot int) (*Allocation, *route.Path, *route.Path) {
	t.Helper()
	const size = 100
	p := &route.Path{Links: []route.Hop{{Link: at}, {Link: at + 1, Shift: 1}}, TotalShift: 1}
	q := &route.Path{Links: []route.Hop{{Link: at + 1}}}
	a := NewAllocation(size)
	place := func(c phit.ConnID, p *route.Path, s int) {
		a.Claim(c, p, s)
		a.ByConn[c] = &Assignment{Conn: c, Path: p, Slots: []int{s}, PathOf: []*route.Path{p}}
	}
	for i := range parallelVerify {
		f := &route.Path{Links: []route.Hop{{Link: topology.LinkID(10 + i)}}}
		place(phit.ConnID(100+i), f, i%size)
	}
	place(lo+1, p, slot)
	place(lo+2, p, 10)
	if err := a.Verify(); err != nil {
		t.Fatalf("slot %d: the clean allocation fails: %v", slot, err)
	}
	return a, p, q
}

// TestVerifyNamesTheFirstWrongSlot: every kind of corruption, at bit 63 of
// the full word and at the last slot of the tail, in the first and in the
// last range of a Verify split across four workers, is reported with the
// exact message of one slot-by-slot walk in ascending order; an occupancy
// bit past the table's end is not a slot. So are slots contended or
// wrongly claimed across ranges.
func TestVerifyNamesTheFirstWrongSlot(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	if got := verifyJobs(parallelVerify + 2); got != 4 {
		t.Fatalf("the rig splits into %d ranges, want 4", got)
	}
	last := topology.LinkID(10 + parallelVerify + 2)
	for _, rig := range []struct {
		name string
		lo   phit.ConnID
		at   topology.LinkID
	}{{"first", 0, 2}, {"last", 1 << 20, last}} {
		lo, at := rig.lo, rig.at
		for _, slot := range []int{63, 99} {
			for _, tc := range []struct {
				name    string
				corrupt func(a *Allocation, p, q *route.Path)
				want    string
			}{
				{"contention", func(a *Allocation, p, q *route.Path) {
					a.ByConn[lo+3] = &Assignment{Conn: lo + 3, Path: p, Slots: []int{slot}, PathOf: []*route.Path{p}}
				}, fmt.Sprintf("slots: contention on link %d slot %d between connections %d and %d", at, slot, lo+1, lo+3)},
				{"stale claim", func(a *Allocation, p, q *route.Path) { delete(a.ByConn, lo+1) },
					fmt.Sprintf("slots: link %d slot %d: table says connection %d, no assignment claims it (stale or leaked claim)", at, slot, lo+1)},
				{"leaked claim", func(a *Allocation, p, q *route.Path) {
					a.ByConn[lo+4] = &Assignment{Conn: lo + 4, Path: q, Slots: []int{slot}, PathOf: []*route.Path{q}}
				}, fmt.Sprintf("slots: link %d slot %d: table says connection 0, assignments say %d (stale or leaked claim)", at+1, slot, lo+4)},
				{"occupancy bit", func(a *Allocation, p, q *route.Path) { a.links[at].busy[slot/64] &^= 1 << uint(slot%64) },
					fmt.Sprintf("slots: link %d slot %d: occupancy bit false disagrees with owner %d", at, slot, lo+1)},
				{"used counter", func(a *Allocation, p, q *route.Path) { a.links[at].used++ },
					fmt.Sprintf("slots: link %d: used counter 3, 2 slots owned", at)},
				{"bit past the table", func(a *Allocation, p, q *route.Path) { a.links[at].busy[1] |= 1 << 63 }, ""},
				// Across ranges: a connection of the last range on a slot a
				// connection of the first range claimed is contention; the
				// first filler's slot, claimed again by p's neighbour, is
				// contention behind it and a wrong claim ahead of it.
				{"contention across ranges", func(a *Allocation, p, q *route.Path) {
					c := lo + 1<<21
					a.ByConn[c] = &Assignment{Conn: c, Path: p, Slots: []int{slot}, PathOf: []*route.Path{p}}
				}, fmt.Sprintf("slots: contention on link %d slot %d between connections %d and %d", at, slot, lo+1, lo+1<<21)},
				{"filler's slot", func(a *Allocation, p, q *route.Path) {
					f := *a.ByConn[100]
					f.Conn = lo + 3
					a.ByConn[lo+3] = &f
				}, map[bool]string{
					true:  "slots: link 10 slot 0: table says connection 100, assignments say 3 (stale or leaked claim)",
					false: fmt.Sprintf("slots: contention on link 10 slot 0 between connections 100 and %d", lo+3),
				}[lo == 0]},
			} {
				a, p, q := verifyRig(t, lo, at, slot)
				tc.corrupt(a, p, q)
				got := ""
				if err := a.Verify(); err != nil {
					got = err.Error()
				}
				if got != tc.want {
					t.Errorf("%s range, slot %d, %s: Verify says %q, want %q", rig.name, slot, tc.name, got, tc.want)
				}
			}
		}
	}
}
