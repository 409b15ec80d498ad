package slots

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/phit"
	"repro/internal/route"
	"repro/internal/topology"
)

// The reference below is the slot picker as it stood before it worked out
// of the allocation's scratch: fresh masks, a table-sized pathFor and free
// list, a bool slice for taken, a rescan of free per ideal, and slot ->
// path as a map. It is kept verbatim (identifiers prefixed ref) as the
// oracle for TestPickerMatchesReference.

// A refAssignment is the picker's answer in its former shape.
type refAssignment struct {
	Slots  []int
	PathOf map[int]*route.Path
}

// refPickSlotsMultiPath chooses at least count injection slots where each
// slot may be reserved on any of the candidate paths (tried in the given
// preference order). When gapTarget is positive the chosen set's cyclic
// MaxGap must not exceed it; a greedy furthest-within-target cover is
// computed first and then topped up to count. It returns nil when the
// free-slot union cannot satisfy the request.
func refPickSlotsMultiPath(a *Allocation, paths []*route.Path, count, windowTarget, windowSlots, offset int) *refAssignment {
	// masks holds one joint-free slot set per candidate path, computed once.
	words := a.maskWords()
	masks := make([]uint64, words*len(paths))
	for i, p := range paths {
		a.freeMask(p, masks[i*words:(i+1)*words])
	}
	// pathFor[s] is the first candidate path with slot s free, or nil.
	pathFor := make([]*route.Path, a.TableSize)
	free := make([]int, 0, a.TableSize)
	for s := 0; s < a.TableSize; s++ {
		w, bit := s/64, uint64(1)<<uint(s%64)
		for i, p := range paths {
			if masks[i*words+w]&bit != 0 {
				pathFor[s] = p
				free = append(free, s)
				break
			}
		}
	}
	if len(free) < count {
		return nil
	}
	taken := make([]bool, a.TableSize)
	chosen := make([]int, 0, count)
	take := func(s int) {
		if !taken[s] {
			taken[s] = true
			chosen = append(chosen, s)
		}
	}
	// Choose count slots near evenly spread ideals.
	for i := 0; len(chosen) < count && i < count; i++ {
		ideal := (i*a.TableSize/count + offset) % a.TableSize
		best, bestDist := -1, a.TableSize+1
		for _, s := range free {
			if taken[s] {
				continue
			}
			d := s - ideal
			if d < 0 {
				d = -d
			}
			if wrap := a.TableSize - d; wrap < d {
				d = wrap
			}
			if d < bestDist {
				best, bestDist = s, d
			}
		}
		if best < 0 {
			return nil
		}
		take(best)
	}
	if len(chosen) < count {
		return nil
	}
	sort.Ints(chosen)
	// Repair the window constraint: while the worst windowSlots-gap
	// window exceeds the target, add a free slot inside its largest
	// gap. Each addition strictly shrinks some gap, so this terminates.
	if windowTarget > 0 {
		for {
			w, at := refMaxGapWindowAt(chosen, a.TableSize, windowSlots)
			if w <= windowTarget {
				break
			}
			// The offending window spans gaps starting at chosen
			// index at; find its largest gap and a free slot
			// inside.
			bestSlot, bestGap := -1, 0
			for j := 0; j < windowSlots && j < len(chosen); j++ {
				i0 := (at + j) % len(chosen)
				from := chosen[i0]
				to := chosen[(i0+1)%len(chosen)]
				gap := to - from
				if gap <= 0 {
					gap += a.TableSize
				}
				if gap <= bestGap {
					continue
				}
				// Free slot nearest the gap's middle.
				mid := (from + gap/2) % a.TableSize
				for d := 0; d < gap/2+1; d++ {
					for _, cand := range []int{(mid + d) % a.TableSize, (mid - d + a.TableSize) % a.TableSize} {
						if !taken[cand] && pathFor[cand] != nil && inGap(from, gap, cand, a.TableSize) {
							bestSlot, bestGap = cand, gap
							break
						}
					}
					if bestGap == gap {
						break
					}
				}
			}
			if bestSlot < 0 {
				return nil // no free slot can shrink the window
			}
			take(bestSlot)
			sort.Ints(chosen)
		}
	}
	asg := &refAssignment{Slots: chosen, PathOf: make(map[int]*route.Path, len(chosen))}
	for _, s := range chosen {
		asg.PathOf[s] = pathFor[s]
	}
	return asg
}

// refMaxGapWindowAt returns the worst sum of m consecutive cyclic gaps and
// the index of the chosen slot where that window starts. When m exceeds
// the slot count, the services wrap around whole table revolutions: k
// slots deliver k services per revolution, so m services cost
// floor(m/k) full revolutions plus the worst (m mod k)-gap window.
func refMaxGapWindowAt(sorted []int, tableSize, m int) (int, int) {
	if len(sorted) == 0 {
		return tableSize * m, 0
	}
	k := len(sorted)
	full := (m / k) * tableSize
	rem := m % k
	if rem == 0 {
		// The worst case still starts just after the least
		// convenient slot; a full multiple of revolutions is
		// position-independent.
		return full, 0
	}
	gaps := make([]int, k)
	for i := range sorted {
		g := sorted[(i+1)%k] - sorted[i]
		if g <= 0 {
			g += tableSize
		}
		gaps[i] = g
	}
	best, at := 0, 0
	for i := range gaps {
		sum := 0
		for j := 0; j < rem; j++ {
			sum += gaps[(i+j)%k]
		}
		if sum > best {
			best, at = sum, i
		}
	}
	return full + best, at
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

// TestPickerMatchesReference: on random partially filled allocations
// (tables of 8, 32 and 256 slots; 1-6 candidate paths; with and without a
// window target) the picker returns the reference's slots on the
// reference's paths, or nil where it returned nil.
func TestPickerMatchesReference(t *testing.T) {
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
				offset := rng.Intn(size)
				got := pickSlotsMultiPath(a, paths, count, windowTarget, windowSlots, offset)
				want := refPickSlotsMultiPath(a, paths, count, windowTarget, windowSlots, offset)
				if (got == nil) != (want == nil) {
					t.Fatalf("table %d count %d window %d/%d offset %d: picker %v, reference %v",
						size, count, windowTarget, windowSlots, offset, got, want)
				}
				if got == nil {
					refused++
					continue
				}
				picked++
				if len(got.Slots) > count {
					repaired++ // the window repair added slots
				}
				if !slices.Equal(got.Slots, want.Slots) {
					t.Fatalf("table %d count %d window %d/%d offset %d: slots %v, reference %v",
						size, count, windowTarget, windowSlots, offset, got.Slots, want.Slots)
				}
				for i, s := range got.Slots {
					if got.PathOf[i] != want.PathOf[s] {
						t.Fatalf("table %d slot %d rides %v, reference %v", size, s, got.PathOf[i], want.PathOf[s])
					}
				}
			}
		}
	}
	t.Logf("%d placements (%d window-repaired) and %d refusals compared", picked, repaired, refused)
	if picked < 500 || refused < 100 || repaired < 50 {
		t.Error("the inputs are not mixing placements, window repairs and refusals")
	}
}

// TestPickerAllocatesOnlyItsAnswer: once the scratch has grown, a pick
// allocates the Assignment, its slots and their paths, and nothing else.
func TestPickerAllocatesOnlyItsAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := topology.NewMesh(5, 5, 1)
	a := loadedAllocation(t, rng, m, 64, 0.1)
	paths, err := route.Candidates(m, m.NIAt(0, 0, 0), m.NIAt(4, 3, 0), 6)
	if err != nil {
		t.Fatal(err)
	}
	paths = paths[:4] // the minimal routes: one TotalShift, as placeRequest groups them
	var asg *Assignment
	pick := func() { asg = pickSlotsMultiPath(a, paths, 6, 16, 1, 5) }
	pick()
	if asg == nil {
		t.Fatal("the rig's request does not fit")
	}
	if allocs := testing.AllocsPerRun(100, pick); allocs > 3 {
		t.Errorf("a steady-state pick allocates %v times, want the Assignment, its Slots and its PathOf", allocs)
	}
}
