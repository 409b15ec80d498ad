package route

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func mesh(t *testing.T) *topology.Mesh {
	t.Helper()
	return topology.NewMesh(4, 3, 2)
}

func TestXYBasics(t *testing.T) {
	m := mesh(t)
	src := m.NIAt(0, 0, 0)
	dst := m.NIAt(2, 2, 1)
	p, err := XY(m, src, dst)
	if err != nil {
		t.Fatalf("XY: %v", err)
	}
	if err := Validate(m.Graph, p); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// NI -> R(0,0) -> R(1,0) -> R(2,0) -> R(2,1) -> R(2,2) -> NI:
	// 6 links, 5 routers.
	if len(p.Links) != 6 || p.Hops() != 5 {
		t.Fatalf("links=%d hops=%d", len(p.Links), p.Hops())
	}
	// X moves first.
	ports := p.Ports(m.Graph)
	if ports[0] != topology.East || ports[1] != topology.East {
		t.Errorf("XY did not move east first: %v", ports)
	}
	if ports[2] != topology.South || ports[3] != topology.South {
		t.Errorf("XY did not then move south: %v", ports)
	}
	// Shifts: one per router hop with no pipeline stages.
	for k, h := range p.Links {
		if int(h.Shift) != k {
			t.Errorf("Links[%d].Shift = %d, want %d", k, h.Shift, k)
		}
	}
	if p.TotalShift != 5 {
		t.Errorf("TotalShift = %d, want 5", p.TotalShift)
	}
}

func TestYXDiffersFromXY(t *testing.T) {
	m := mesh(t)
	src, dst := m.NIAt(0, 0, 0), m.NIAt(2, 2, 0)
	xy, _ := XY(m, src, dst)
	yx, err := YX(m, src, dst)
	if err != nil {
		t.Fatalf("YX: %v", err)
	}
	if err := Validate(m.Graph, yx); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if ports := yx.Ports(m.Graph); ports[0] != topology.South {
		t.Errorf("YX did not move south first: %v", ports)
	}
	if len(xy.Links) != len(yx.Links) {
		t.Error("XY and YX lengths differ")
	}
	same := true
	for i := range xy.Links {
		if xy.Links[i] != yx.Links[i] {
			same = false
		}
	}
	if same {
		t.Error("XY and YX identical for a diagonal pair")
	}
}

func TestRouteErrors(t *testing.T) {
	m := mesh(t)
	ni := m.NIAt(0, 0, 0)
	r := m.RouterAt(0, 0)
	if _, err := XY(m, ni, ni); err == nil {
		t.Error("XY accepted equal endpoints")
	}
	if _, err := XY(m, r, ni); err == nil {
		t.Error("XY accepted a router endpoint")
	}
	if _, err := BFS(m.Graph, ni, ni); err == nil {
		t.Error("BFS accepted equal endpoints")
	}
}

func TestBFSMatchesXYLength(t *testing.T) {
	m := mesh(t)
	src, dst := m.NIAt(0, 2, 1), m.NIAt(3, 0, 0)
	xy, _ := XY(m, src, dst)
	bfs, err := BFS(m.Graph, src, dst)
	if err != nil {
		t.Fatalf("BFS: %v", err)
	}
	if err := Validate(m.Graph, bfs); err != nil {
		t.Fatalf("Validate BFS: %v", err)
	}
	if len(bfs.Links) != len(xy.Links) {
		t.Errorf("BFS %d links vs XY %d", len(bfs.Links), len(xy.Links))
	}
}

// TestRoutingQuick: for random NI pairs, XY, YX, BFS and all staircases
// are valid, minimal, and have correct shifts.
func TestRoutingQuick(t *testing.T) {
	m := mesh(t)
	nis := m.AllNIs()
	f := func(a, b uint8) bool {
		src := nis[int(a)%len(nis)]
		dst := nis[int(b)%len(nis)]
		if src == dst {
			return true
		}
		want := -1
		routes := []func() (*Path, error){
			func() (*Path, error) { return XY(m, src, dst) },
			func() (*Path, error) { return YX(m, src, dst) },
			func() (*Path, error) { return BFS(m.Graph, src, dst) },
		}
		for _, rf := range routes {
			p, err := rf()
			if err != nil {
				return false
			}
			if Validate(m.Graph, p) != nil {
				return false
			}
			if want == -1 {
				want = len(p.Links)
			} else if len(p.Links) != want {
				return false
			}
			if p.TotalShift != len(p.Links)-1 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPipelinedShift(t *testing.T) {
	m := mesh(t)
	m.SetMeshPipelineStages(1)
	src, dst := m.NIAt(0, 0, 0), m.NIAt(2, 0, 0)
	p, err := XY(m, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	// Path: NI->R0 (0 stages), R0->R1 (1), R1->R2 (1), R2->NI (0).
	// Shifts: 0, 1, 3, 5; arrival shift 5.
	want := []int{0, 1, 3, 5}
	for k, h := range p.Links {
		if int(h.Shift) != want[k] {
			t.Errorf("Links[%d].Shift = %d, want %d", k, h.Shift, want[k])
		}
	}
	if p.TotalShift != 5 {
		t.Errorf("TotalShift = %d, want 5", p.TotalShift)
	}
}

func TestCandidatesDistinctAndValid(t *testing.T) {
	m := mesh(t)
	src, dst := m.NIAt(0, 0, 0), m.NIAt(3, 2, 1)
	cands, err := Candidates(m, src, dst, 6)
	if err != nil {
		t.Fatalf("Candidates: %v", err)
	}
	if len(cands) < 4 {
		t.Fatalf("only %d candidates for a diagonal pair", len(cands))
	}
	seen := map[string]bool{}
	minimal := len(cands[0].Links)
	for _, p := range cands {
		if err := Validate(m.Graph, p); err != nil {
			t.Errorf("candidate invalid: %v", err)
		}
		key := ""
		for _, l := range p.Links {
			key += string(rune(l.Link)) + ","
		}
		if seen[key] {
			t.Error("duplicate candidate")
		}
		seen[key] = true
		if len(p.Links) != minimal && len(p.Links) != minimal+2 {
			t.Errorf("candidate length %d; want %d (minimal) or %d (detour)",
				len(p.Links), minimal, minimal+2)
		}
	}
}

func TestCandidatesSameColumnGetDetours(t *testing.T) {
	m := mesh(t)
	src, dst := m.NIAt(1, 0, 0), m.NIAt(1, 2, 0) // same column
	cands, err := Candidates(m, src, dst, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 3 {
		t.Fatalf("same-column pair got %d candidates; want minimal + 2 detours", len(cands))
	}
	if len(cands[1].Links) != len(cands[0].Links)+2 {
		t.Errorf("detour length %d vs minimal %d", len(cands[1].Links), len(cands[0].Links))
	}
}

func TestDetourErrors(t *testing.T) {
	m := mesh(t)
	if _, err := Detour(m, m.NIAt(0, 0, 0), m.NIAt(0, 0, 1), topology.East); err == nil {
		t.Error("Detour accepted same-router NIs")
	}
	if _, err := Detour(m, m.NIAt(0, 0, 0), m.NIAt(1, 0, 0), 7); err == nil {
		t.Error("Detour accepted a non-mesh direction")
	}
}

func TestValidateRejects(t *testing.T) {
	m := mesh(t)
	p, _ := XY(m, m.NIAt(0, 0, 0), m.NIAt(1, 1, 0))
	bad := *p
	bad.Links = bad.Links[:1]
	if err := Validate(m.Graph, &bad); err == nil {
		t.Error("Validate accepted a truncated path")
	}
	bad2 := *p
	bad2.Links = append([]Hop(nil), p.Links...)
	bad2.Links[1].Shift = 7
	if err := Validate(m.Graph, &bad2); err == nil {
		t.Error("Validate accepted a wrong shift")
	}
}

// candidatesSprintKeyed is Candidates as it was before de-duplication
// compared link slices: a fmt.Sprint of the links as a map key. Kept here
// as the oracle for TestCandidatesMatchSprintKeyed.
func candidatesSprintKeyed(m *topology.Mesh, src, dst topology.NodeID, max int) ([]*Path, error) {
	if max < 1 {
		max = 1
	}
	sr := m.Node(m.Node(src).Router)
	dr := m.Node(m.Node(dst).Router)
	dx := sr.X - dr.X
	if dx < 0 {
		dx = -dx
	}
	var out []*Path
	seen := make(map[string]bool)
	add := func(p *Path) {
		key := fmt.Sprint(p.Links)
		if !seen[key] {
			seen[key] = true
			out = append(out, p)
		}
	}
	for turn := dx; turn >= 0 && len(out) < max; turn-- {
		p, err := Staircase(m, src, dst, turn)
		if err != nil {
			return nil, err
		}
		add(p)
	}
	if len(out) < max && sr.ID != dr.ID {
		for _, side := range []int{topology.East, topology.West, topology.North, topology.South} {
			if len(out) >= max {
				break
			}
			if p, err := Detour(m, src, dst, side); err == nil {
				add(p)
			}
		}
	}
	return out, nil
}

// TestCandidatesMatchSprintKeyed: same paths, same order, for every NI
// pair of a 6x6 mesh (two NIs per router, so same-router pairs are in) at
// the caps the repo uses.
func TestCandidatesMatchSprintKeyed(t *testing.T) {
	m := topology.NewMesh(6, 6, 2)
	nis := m.AllNIs()
	for _, max := range []int{1, 4, 6} {
		for _, src := range nis {
			for _, dst := range nis {
				if src == dst {
					continue
				}
				got, err := Candidates(m, src, dst, max)
				want, werr := candidatesSprintKeyed(m, src, dst, max)
				if (err == nil) != (werr == nil) {
					t.Fatalf("%d->%d max %d: error %v, oracle %v", src, dst, max, err, werr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%d->%d max %d: %d paths %v, oracle %d paths %v", src, dst, max, len(got), got, len(want), want)
				}
			}
		}
	}
}

// TestConstructorEdges: the rejections and clamps every constructor
// applies.
func TestConstructorEdges(t *testing.T) {
	m := mesh(t)
	a, b := m.NIAt(0, 0, 0), m.NIAt(2, 1, 0)
	for name, f := range map[string]func(src, dst topology.NodeID) error{
		"YX":         func(src, dst topology.NodeID) error { _, err := YX(m, src, dst); return err },
		"Staircase":  func(src, dst topology.NodeID) error { _, err := Staircase(m, src, dst, 1); return err },
		"Detour":     func(src, dst topology.NodeID) error { _, err := Detour(m, src, dst, topology.East); return err },
		"Candidates": func(src, dst topology.NodeID) error { _, err := Candidates(m, src, dst, 6); return err },
	} {
		if f(a, a) == nil {
			t.Errorf("%s accepted equal endpoints", name)
		}
		if f(m.RouterAt(0, 0), b) == nil {
			t.Errorf("%s accepted a router endpoint", name)
		}
	}
	if _, err := Detour(m, a, b, topology.West); err == nil || !strings.Contains(err.Error(), "has no link on port") {
		t.Errorf("Detour off the mesh edge: %v", err)
	}
	if _, err := Detour(m, a, b, -1); err == nil || !strings.Contains(err.Error(), "mesh direction") {
		t.Errorf("Detour through port -1: %v", err)
	}
	// Turns clamp: before the first X hop is YX, past the last is XY.
	xy, _ := XY(m, a, b)
	yx, _ := YX(m, a, b)
	for turn, want := range map[int]*Path{-1: yx, 9: xy} {
		if p, err := Staircase(m, a, b, turn); err != nil || !reflect.DeepEqual(p, want) {
			t.Errorf("Staircase turning after %d = %v, %v; want %v", turn, p, err, want)
		}
	}
	if ps, err := Candidates(m, a, b, 0); err != nil || len(ps) != 1 || !reflect.DeepEqual(ps[0], xy) {
		t.Errorf("Candidates capped at 0 = %v, %v; want the XY route alone", ps, err)
	}
	// A shift past what a hop records is refused, not wrapped.
	long := topology.NewMesh(3, 1, 1)
	long.SetMeshPipelineStages(40000)
	if _, err := XY(long, long.NIAt(0, 0, 0), long.NIAt(2, 0, 0)); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("XY over 80000 slots of shift: %v", err)
	}
	if _, err := BFS(long.Graph, long.NIAt(0, 0, 0), long.NIAt(2, 0, 0)); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("BFS over 80000 slots of shift: %v", err)
	}
}

// TestRoutesValidOnRandomMeshes: on random meshes (1-4 NIs per router, 0-2
// pipeline stages drawn per link) every route any constructor returns
// passes Validate, which re-derives each shift from the links' stages.
// Minimal routes cross the Manhattan distance; a detour does too when it
// side-steps towards the destination, else two links more. Candidates are
// distinct and start with the XY route.
func TestRoutesValidOnRandomMeshes(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 20; i++ {
		m := topology.NewMesh(1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(4))
		for _, l := range m.Links() {
			m.SetPipelineStages(l.ID, rng.Intn(3))
		}
		nis := m.AllNIs()
		for j := 0; j < 40; j++ {
			src, dst := nis[rng.Intn(len(nis))], nis[rng.Intn(len(nis))]
			if src == dst {
				continue
			}
			sr, dr := m.Node(m.Node(src).Router), m.Node(m.Node(dst).Router)
			minimal := max(sr.X-dr.X, dr.X-sr.X) + max(sr.Y-dr.Y, dr.Y-sr.Y) + 2
			check := func(what string, p *Path, err error, detour bool) {
				t.Helper()
				if err == nil {
					err = Validate(m.Graph, p)
				}
				if err != nil || p.Src != src || p.Dst != dst ||
					len(p.Links) != minimal && !(detour && len(p.Links) == minimal+2) {
					t.Fatalf("%dx%d %d->%d %s: %v, %v; minimal routes have %d links", m.Cols, m.Rows, src, dst, what, p, err, minimal)
				}
			}
			p, err := XY(m, src, dst)
			check("XY", p, err, false)
			xy := p
			p, err = YX(m, src, dst)
			check("YX", p, err, false)
			p, err = BFS(m.Graph, src, dst)
			check("BFS", p, err, false)
			for turn := 0; turn <= m.Cols; turn++ {
				p, err = Staircase(m, src, dst, turn)
				check(fmt.Sprint("Staircase ", turn), p, err, false)
			}
			for side := topology.North; side <= topology.West && sr.ID != dr.ID; side++ {
				if p, err = Detour(m, src, dst, side); err == nil {
					check(fmt.Sprint("Detour ", side), p, err, true)
				}
			}
			ps, err := Candidates(m, src, dst, 6)
			if err != nil || !reflect.DeepEqual(ps[0], xy) {
				t.Fatalf("%d->%d: Candidates start %v, %v; want the XY route", src, dst, ps[0], err)
			}
			for k, p := range ps {
				check(fmt.Sprint("Candidates #", k), p, nil, true)
				for _, q := range ps[:k] {
					if reflect.DeepEqual(q.Links, p.Links) {
						t.Fatalf("%d->%d: candidate %d repeats an earlier one", src, dst, k)
					}
				}
			}
		}
	}
}

// TestArenaMatchesCandidates: candidates carved from one arena, for random
// NI pairs and caps on 8x8 and 32x32 meshes, equal the arena-less ones, and
// every call's hops are its own: overwriting all of one call's hops and
// appending to its paths leaves every other call's paths as they were.
func TestArenaMatchesCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, size := range []int{8, 32} {
		m := topology.NewMesh(size, size, 1)
		nis := m.AllNIs()
		const calls = 600
		ar := NewArena(calls / 2) // fewer than it gets: later chunks start mid-run
		var got, want [][]*Path
		for len(got) < calls {
			src, dst := nis[rng.Intn(len(nis))], nis[rng.Intn(len(nis))]
			if src == dst {
				continue
			}
			max := 1 + rng.Intn(6)
			g, err := ar.Candidates(m, src, dst, max)
			w, werr := Candidates(m, src, dst, max)
			if err != nil || werr != nil {
				t.Fatalf("%d->%d: %v, %v", src, dst, err, werr)
			}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("%dx%d %d->%d max %d: arena %v, want %v", size, size, src, dst, max, g, w)
			}
			got, want = append(got, g), append(want, w)
		}
		// Calls follow each other in the arena: overwrite every other one.
		for i := 0; i < calls; i += 2 {
			for _, p := range got[i] {
				p.Links = append(p.Links, Hop{Link: -1})
				for k := range p.Links {
					p.Links[k] = Hop{Link: -2, Shift: 7}
				}
			}
		}
		for i := 1; i < calls; i += 2 {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%dx%d: writing its neighbours' hops changed call %d's", size, size, i)
			}
		}
	}
}
