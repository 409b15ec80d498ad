package route

import (
	"fmt"
	"math/rand"
	"reflect"
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
