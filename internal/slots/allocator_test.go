package slots

import (
	"math/rand"
	"testing"

	"repro/internal/phit"
	"repro/internal/route"
	"repro/internal/topology"
)

func TestByName(t *testing.T) {
	for name, want := range map[string]string{"": "greedy", "greedy": "greedy", "ripup": "ripup"} {
		al, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if al.Name() != want {
			t.Errorf("ByName(%q).Name() = %q, want %q", name, al.Name(), want)
		}
	}
	if _, err := ByName("anneal"); err == nil {
		t.Error("ByName accepted an unknown strategy")
	}
}

// TestRipUpBeatsGreedyContrived builds the minimal workload where rip-up
// provably wins: a 2-slot table, a heavy connection B whose preferred
// (lower-shift) path fully claims the shared link L2 but whose detour
// path over L3 is wide open, and a light connection A whose only path is
// L2. Greedy serves B first (heavier), saturates L2 and fails A; rip-up
// releases B, places A on L2 and re-places B on the detour.
func TestRipUpBeatsGreedyContrived(t *testing.T) {
	const l2, l3 = topology.LinkID(2), topology.LinkID(3)
	pathA := &route.Path{Src: 10, Dst: 11, Links: []route.Hop{{Link: l2, Shift: 1}}, TotalShift: 1}
	pathB2 := &route.Path{Src: 12, Dst: 13, Links: []route.Hop{{Link: l2, Shift: 1}}, TotalShift: 1}
	pathB3 := &route.Path{Src: 12, Dst: 13, Links: []route.Hop{{Link: l3, Shift: 2}}, TotalShift: 2}
	reqs := []Request{
		{Conn: 1, Paths: []*route.Path{pathA}, Count: 1},
		{Conn: 2, Paths: []*route.Path{pathB2, pathB3}, Count: 2},
	}

	ag := NewAllocation(2)
	gres, err := (Greedy{}).Place(ag, reqs, true)
	if err != nil {
		t.Fatalf("greedy: %v", err)
	}
	if len(gres.Placed) != 1 || gres.Placed[0] != 2 || len(gres.Failed) != 1 || gres.Failed[0].Conn != 1 {
		t.Fatalf("greedy placed %v failed %+v; want B placed, A failed", gres.Placed, gres.Failed)
	}

	ar := NewAllocation(2)
	rres, err := (RipUp{}).Place(ar, reqs, true)
	if err != nil {
		t.Fatalf("ripup: %v", err)
	}
	if len(rres.Placed) != 2 || len(rres.Failed) != 0 {
		t.Fatalf("ripup placed %v failed %+v; want both placed", rres.Placed, rres.Failed)
	}
	if rres.RipUps != 1 {
		t.Errorf("RipUps = %d, want 1", rres.RipUps)
	}
	if err := ar.Verify(); err != nil {
		t.Fatalf("repaired allocation fails Verify: %v", err)
	}
	// B must have moved to the detour: L2 carries A now.
	onL3 := false
	for s := 0; s < 2; s++ {
		if ar.LinkOwner(l3, s) == 2 {
			onL3 = true
		}
	}
	if !onL3 {
		t.Error("connection B was not re-placed on the detour link")
	}
}

// randomRequests draws a reproducible contended workload on a 4x4 mesh.
func randomRequests(t *testing.T, seed int64, n int) []Request {
	t.Helper()
	m := topology.NewMesh(4, 4, 1)
	rng := rand.New(rand.NewSource(seed))
	var reqs []Request
	for i := 0; i < n; i++ {
		sx, sy := rng.Intn(4), rng.Intn(4)
		dx, dy := rng.Intn(4), rng.Intn(4)
		if sx == dx && sy == dy {
			dx = (dx + 1) % 4
		}
		paths, err := route.Candidates(m, m.NIAt(sx, sy, 0), m.NIAt(dx, dy, 0), 4)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, Request{
			Conn:  phit.ConnID(i + 1),
			Paths: paths,
			Count: 1 + rng.Intn(3),
		})
	}
	return reqs
}

// TestRipUpNeverWorseThanGreedy is the structural guarantee the scale
// study's Verify leans on: because best-effort rip-up repairs run as a
// post-pass over the unchanged greedy outcome, the placed set is a
// superset of greedy's on every workload.
func TestRipUpNeverWorseThanGreedy(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		reqs := randomRequests(t, seed, 40)

		ag := NewAllocation(8)
		gres, err := (Greedy{}).Place(ag, reqs, true)
		if err != nil {
			t.Fatalf("seed %d greedy: %v", seed, err)
		}
		ar := NewAllocation(8)
		rres, err := (RipUp{}).Place(ar, reqs, true)
		if err != nil {
			t.Fatalf("seed %d ripup: %v", seed, err)
		}

		placed := make(map[phit.ConnID]bool, len(rres.Placed))
		for _, c := range rres.Placed {
			placed[c] = true
		}
		for _, c := range gres.Placed {
			if !placed[c] {
				t.Errorf("seed %d: greedy placed connection %d but ripup did not", seed, c)
			}
		}
		if rres.SuccessRate() < gres.SuccessRate() {
			t.Errorf("seed %d: ripup success %.3f below greedy %.3f",
				seed, rres.SuccessRate(), gres.SuccessRate())
		}
		if err := ag.Verify(); err != nil {
			t.Errorf("seed %d greedy Verify: %v", seed, err)
		}
		if err := ar.Verify(); err != nil {
			t.Errorf("seed %d ripup Verify: %v", seed, err)
		}
	}
}

// TestAllocateWithStrict checks the strict path of both strategies:
// whatever greedy can place in full, rip-up places too, and both reject
// malformed requests outright.
func TestAllocateWithStrict(t *testing.T) {
	reqs := randomRequests(t, 3, 10)
	for _, al := range Allocators() {
		a, err := AllocateWith(al, 16, reqs)
		if err != nil {
			t.Fatalf("%s strict: %v", al.Name(), err)
		}
		if err := a.Verify(); err != nil {
			t.Fatalf("%s Verify: %v", al.Name(), err)
		}
		bad := []Request{{Conn: 99, Paths: reqs[0].Paths, Count: 0}}
		if _, err := AllocateWith(al, 16, bad); err == nil {
			t.Errorf("%s accepted a zero-count request", al.Name())
		}
	}
}
