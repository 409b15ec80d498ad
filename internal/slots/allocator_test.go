package slots

import (
	"cmp"
	"math/rand"
	"slices"
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

// loadedAllocation returns an allocation of the given table size on a 5x5
// mesh loaded with random (path, slot) claims: load 0 leaves it empty, load 1
// leaves few joint-free slots on a long path.
func loadedAllocation(t *testing.T, rng *rand.Rand, m *topology.Mesh, size int, load float64) *Allocation {
	t.Helper()
	a := NewAllocation(size)
	nis := m.AllNIs()
	for c := 1; c <= int(load*float64(size)*60); c++ {
		src, dst := nis[rng.Intn(len(nis))], nis[rng.Intn(len(nis))]
		if src == dst {
			continue
		}
		ps, err := route.Candidates(m, src, dst, 6)
		if err != nil {
			t.Fatal(err)
		}
		p := ps[rng.Intn(len(ps))]
		if s := rng.Intn(size); a.SlotFree(p, s) {
			a.Claim(phit.ConnID(c), p, s)
		}
	}
	return a
}

// freeMasks returns the joint-free slot set of every path, as placeRequest
// hands them to the picker.
func freeMasks(a *Allocation, paths []*route.Path) []uint64 {
	words := a.maskWords()
	masks := make([]uint64, words*len(paths))
	for i, p := range paths {
		a.freeMask(p, masks[i*words:(i+1)*words])
	}
	return masks
}

// TestPickerAllocatesOnlyItsAnswer: once the scratch has grown, a pick from
// the caller's masks allocates the Assignment, its slots and their paths,
// and nothing else.
func TestPickerAllocatesOnlyItsAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := topology.NewMesh(5, 5, 1)
	a := loadedAllocation(t, rng, m, 64, 0.1)
	paths, err := route.Candidates(m, m.NIAt(0, 0, 0), m.NIAt(4, 3, 0), 6)
	if err != nil {
		t.Fatal(err)
	}
	paths = paths[:4] // the minimal routes: one TotalShift, as placeRequest groups them
	masks := freeMasks(a, paths)
	var asg *Assignment
	pick := func() { asg = pickSlotsMultiPath(a, paths, masks, 6, 16, 1, 5) }
	pick()
	if asg == nil {
		t.Fatal("the rig's request does not fit")
	}
	if allocs := testing.AllocsPerRun(100, pick); allocs > 3 {
		t.Errorf("a steady-state pick allocates %v times, want the Assignment, its Slots and its PathOf", allocs)
	}
}

// blockersModel is the victim ranking as specified: score every owner of
// every slot of every link of every candidate path, keep the rippable ones,
// sort them all by score (highest first) and id, and take the first
// maxVictims.
func blockersModel(a *Allocation, req Request, rippable map[phit.ConnID]bool) (top []phit.ConnID, ranked []phit.ConnID, score map[phit.ConnID]int) {
	score = map[phit.ConnID]int{}
	for _, p := range req.Paths {
		for _, h := range p.Links {
			for s := 0; s < a.TableSize; s++ {
				if c := a.LinkOwner(h.Link, s); c != phit.None && rippable[c] {
					score[c]++
				}
			}
		}
	}
	for c := range score {
		ranked = append(ranked, c)
	}
	slices.SortFunc(ranked, func(x, y phit.ConnID) int {
		return cmp.Or(cmp.Compare(score[y], score[x]), cmp.Compare(x, y))
	})
	return ranked[:min(len(ranked), maxVictims)], ranked, score
}

// TestBlockersMatchSortEverything: on random loaded allocations, with a
// random quarter of the owners not rippable and candidate paths that share
// links, blockers returns the model's leaders — including when the scores
// tie across the cut and when fewer than maxVictims connections block.
func TestBlockersMatchSortEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	m := topology.NewMesh(5, 5, 1)
	nis := m.AllNIs()
	tiedAtCut, fewer, none := 0, 0, 0
	for round := 0; round < 150; round++ {
		size := []int{8, 16, 100}[round%3]
		a := loadedAllocation(t, rng, m, size, rng.Float64()*rng.Float64())
		rippable := map[phit.ConnID]bool{}
		for c := 1; c <= 60*size; c++ {
			rippable[phit.ConnID(c)] = rng.Intn(4) > 0
		}
		for trial := 0; trial < 8; trial++ {
			src, dst := nis[rng.Intn(len(nis))], nis[rng.Intn(len(nis))]
			if src == dst {
				continue
			}
			paths, err := route.Candidates(m, src, dst, 1+rng.Intn(6))
			if err != nil {
				t.Fatal(err)
			}
			req := Request{Conn: phit.ConnID(1 << 20), Paths: paths, Count: 1}
			got := blockers(a, req, rippable)
			want, ranked, score := blockersModel(a, req, rippable)
			if !slices.Equal(got, want) {
				t.Fatalf("round %d trial %d: blockers %v, model %v (scores %v)", round, trial, got, want, score)
			}
			switch {
			case len(ranked) == 0:
				none++
			case len(ranked) < maxVictims:
				fewer++
			case len(ranked) > maxVictims && score[ranked[maxVictims-1]] == score[ranked[maxVictims]]:
				tiedAtCut++
			}
		}
	}
	t.Logf("%d rankings tied across the cut, %d with fewer than %d blockers, %d with none", tiedAtCut, fewer, maxVictims, none)
	if tiedAtCut < 20 || fewer < 20 || none < 5 {
		t.Error("the inputs do not mix ties at the cut, short rankings and empty ones")
	}
}

// TestBlockersAllocatesOnlyItsAnswer: once the scratch has grown, ranking
// the victims allocates the returned slice and nothing else.
func TestBlockersAllocatesOnlyItsAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := topology.NewMesh(5, 5, 1)
	a := loadedAllocation(t, rng, m, 64, 0.5)
	paths, err := route.Candidates(m, m.NIAt(0, 0, 0), m.NIAt(4, 3, 0), 6)
	if err != nil {
		t.Fatal(err)
	}
	rippable := map[phit.ConnID]bool{}
	for c := 1; c <= 60*64; c++ {
		rippable[phit.ConnID(c)] = true
	}
	req := Request{Conn: phit.ConnID(1 << 20), Paths: paths, Count: 1}
	var got []phit.ConnID
	rank := func() { got = blockers(a, req, rippable) }
	rank()
	if len(got) != maxVictims {
		t.Fatalf("the rig has %d blockers, want %d", len(got), maxVictims)
	}
	if allocs := testing.AllocsPerRun(100, rank); allocs > 1 {
		t.Errorf("a steady-state ranking allocates %v times, want at most the answer", allocs)
	}
}

// TestPlacementErrorNamesTheLink: the typed fields name the hottest link of
// the candidate with the most joint-free slots (the first on a tie), and
// its free slots.
func TestPlacementErrorNamesTheLink(t *testing.T) {
	full := &route.Path{Links: []route.Hop{{Link: 2}}}
	roomy := &route.Path{Links: []route.Hop{{Link: 3}, {Link: 4, Shift: 1}}, TotalShift: 1}
	a := NewAllocation(4)
	for s := 0; s < 4; s++ {
		a.Claim(9, full, s)
	}
	tied := &route.Path{Links: []route.Hop{{Link: 5}}}
	for s := 0; s < 3; s++ {
		a.Claim(8, &route.Path{Links: []route.Hop{{Link: 3}}}, s)
		a.Claim(7, tied, s)
	}
	pe := placementError(a, Request{Conn: 1, Paths: []*route.Path{full, roomy, tied}, Count: 2})
	if pe.Link != 3 || pe.FreeSlots != 1 {
		t.Errorf("PlacementError names link %d with %d free slots, want link 3 with 1", pe.Link, pe.FreeSlots)
	}
	want := "slots: no feasible slots for connection 1 (2 needed, gap target 0, table 4)" +
		"; path 0: 0 joint-free slots, hottest link 2 at 100%; path 1: 1 joint-free slots, hottest link 3 at 75%" +
		"; path 2: 1 joint-free slots, hottest link 5 at 75%"
	if pe.Error() != want {
		t.Errorf("Error() = %q, want %q", pe.Error(), want)
	}
}

// TestPickerPlacesWhatItPromises: on random partially filled allocations
// (tables of 8, 32 and 256 slots; 1-6 candidate paths; with and without a
// window target) every pick holds at least the requested count of distinct
// ascending slots, each on the first candidate path where it is free, and
// meets the window target; a pick is refused whenever the candidates' free
// slots number fewer than the count.
func TestPickerPlacesWhatItPromises(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	m := topology.NewMesh(5, 5, 1)
	nis := m.AllNIs()
	picked, refused, repaired := 0, 0, 0
	for _, size := range []int{8, 32, 256} {
		for round := 0; round < 40; round++ {
			a := loadedAllocation(t, rng, m, size, rng.Float64())
			for trial := 0; trial < 25; trial++ {
				src, dst := nis[rng.Intn(len(nis))], nis[rng.Intn(len(nis))]
				if src == dst {
					continue
				}
				paths, err := route.Candidates(m, src, dst, 1+rng.Intn(6))
				if err != nil {
					t.Fatal(err)
				}
				count := 1 + rng.Intn(size/2)
				windowTarget, windowSlots := 0, 1
				if rng.Intn(2) == 0 {
					windowSlots = 1 + rng.Intn(3)
					windowTarget = windowSlots * (size/count + rng.Intn(size/count+1))
				}
				free := 0
				for s := 0; s < size; s++ {
					if slices.ContainsFunc(paths, func(p *route.Path) bool { return a.SlotFree(p, s) }) {
						free++
					}
				}
				asg := pickSlotsMultiPath(a, paths, freeMasks(a, paths), count, windowTarget, windowSlots, rng.Intn(size))
				if asg == nil {
					if free >= count && windowTarget == 0 {
						t.Fatalf("table %d: %d slots refused with %d free", size, count, free)
					}
					refused++
					continue
				}
				picked++
				if len(asg.Slots) > count {
					repaired++ // the window repair added slots
				}
				if len(asg.Slots) < count || !slices.IsSorted(asg.Slots) || len(slices.Compact(slices.Clone(asg.Slots))) != len(asg.Slots) {
					t.Fatalf("table %d: %d slots wanted, picked %v", size, count, asg.Slots)
				}
				for i, s := range asg.Slots {
					first := slices.IndexFunc(paths, func(p *route.Path) bool { return a.SlotFree(p, s) })
					if first < 0 || asg.PathOf[i] != paths[first] {
						t.Fatalf("table %d: slot %d rides %v, first free candidate is #%d", size, s, asg.PathOf[i], first)
					}
				}
				if windowTarget > 0 && MaxGapWindow(asg.Slots, size, windowSlots) > windowTarget {
					t.Fatalf("table %d: slots %v miss the %d-slot window target %d", size, asg.Slots, windowSlots, windowTarget)
				}
			}
		}
	}
	t.Logf("%d placements (%d window-repaired) and %d refusals checked", picked, repaired, refused)
	if picked < 500 || refused < 100 || repaired < 50 {
		t.Error("the inputs are not mixing placements, window repairs and refusals")
	}
}
