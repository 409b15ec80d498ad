package analysis

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/phit"
	"repro/internal/slots"
)

func TestSlotBandwidth(t *testing.T) {
	// 500 MHz, 4-byte words, 32 slots: one slot = 2 words per
	// revolution of 96 cycles = 500e6/96 * 8 B ≈ 41.7 MB/s.
	got := SlotBandwidthMBps(500, 4, 32, false)
	if math.Abs(got-41.67) > 0.1 {
		t.Errorf("SlotBandwidthMBps = %v", got)
	}
	// Reliable accounting charges the sideband word: 1 payload word per
	// slot, exactly half the baseline guarantee.
	if rel := SlotBandwidthMBps(500, 4, 32, true); math.Abs(rel-got/2) > 1e-9 {
		t.Errorf("reliable SlotBandwidthMBps = %v, want %v", rel, got/2)
	}
	n, err := SlotsForBandwidth(500, 500, 4, 32, false)
	if err != nil || n != 12 {
		t.Errorf("SlotsForBandwidth(500) = %d, %v", n, err)
	}
	// The same rate under reliable accounting needs twice the slots.
	n, err = SlotsForBandwidth(500, 500, 4, 32, true)
	if err != nil || n != 24 {
		t.Errorf("reliable SlotsForBandwidth(500) = %d, %v", n, err)
	}
	n, err = SlotsForBandwidth(1, 500, 4, 32, false)
	if err != nil || n != 1 {
		t.Errorf("SlotsForBandwidth(1) = %d, %v", n, err)
	}
	if _, err := SlotsForBandwidth(5000, 500, 4, 32, false); err == nil {
		t.Error("accepted a rate above link capacity")
	}
	// A rate that fits baseline capacity can exceed reliable capacity.
	if _, err := SlotsForBandwidth(1200, 500, 4, 32, true); err == nil {
		t.Error("accepted a rate above reliable link capacity")
	}
	if got := ThroughputGuaranteeMBps(12, 500, 4, 32, false); got < 500 {
		t.Errorf("guarantee for 12 slots = %v < 500", got)
	}
	if base, rel := ThroughputGuaranteeMBps(12, 500, 4, 32, false), ThroughputGuaranteeMBps(12, 500, 4, 32, true); math.Abs(rel-base/2) > 1e-9 {
		t.Errorf("reliable guarantee = %v, want half of %v", rel, base)
	}
}

func TestLatencyBound(t *testing.T) {
	shift := 3
	// Slots {0, 8} in a 16-table: MaxGap 8.
	b := LatencyBoundNs(shift, []int{0, 8}, 16, 500)
	// cycles = 3*(8+1) + 5 + 9 + 4 = 27+18 = 45 -> 90 ns.
	want := float64(3*(8+1)+FixedPathCycles(shift)) * 2
	if b != want {
		t.Errorf("LatencyBoundNs = %v, want %v", b, want)
	}
}

// bruteForceWorstLatencyCycles walks every arrival cycle of one table
// revolution under the TDM service model — a word arriving at cycle a is
// visible to the slot decision at the next flit-cycle boundary strictly
// after a, departs at the start of the first owned slot from that
// boundary on, then pays up to 2 cycles of in-flit serialisation, the
// path shift, and the delivery registration — and returns the worst
// injection-to-delivery latency in cycles.
func bruteForceWorstLatencyCycles(set []int, tableSize int, shift int) int {
	owned := make(map[int]bool, len(set))
	for _, s := range set {
		owned[s] = true
	}
	worst := 0
	for a := 0; a < phit.FlitWords*tableSize; a++ {
		d := a + 1
		if r := d % phit.FlitWords; r != 0 {
			d += phit.FlitWords - r
		}
		dep := d
		for !owned[(dep/phit.FlitWords)%tableSize] {
			dep += phit.FlitWords
		}
		lat := (dep - a) + 2 + phit.FlitWords*shift + deliveryCycles
		if lat > worst {
			worst = lat
		}
	}
	return worst
}

// TestLatencyBoundBruteForce pins LatencyBoundNs against a cycle-level
// slot walk: the analytical bound must never undercount the worst
// arrival phase, for single-slot reservations at every table position
// (including slot S-1, whose per-hop shift wraps to slot 0), wrap pairs,
// and random sets.
func TestLatencyBoundBruteForce(t *testing.T) {
	const fMHz = 500
	cycleNs := 1e3 / fMHz
	rng := rand.New(rand.NewSource(7))
	check := func(set []int, tableSize int, shift int) {
		t.Helper()
		brute := bruteForceWorstLatencyCycles(set, tableSize, shift)
		bound := int(math.Round(LatencyBoundNs(shift, set, tableSize, fMHz) / cycleNs))
		if bound < brute {
			t.Errorf("set %v table %d shift %d: bound %d cycles undercuts brute-force %d",
				set, tableSize, shift, bound, brute)
		}
		// The model constants leave exactly two flit cycles of analytic
		// slack (decision granularity + injection margin); more would
		// mean the bound went soft.
		if bound-brute > 2*phit.FlitWords {
			t.Errorf("set %v table %d: bound %d cycles is %d above brute-force %d",
				set, tableSize, bound, bound-brute, brute)
		}
	}
	for _, tableSize := range []int{8, 16, 32} {
		for _, shift := range []int{1, 3, 6} {
			for s := 0; s < tableSize; s++ {
				check([]int{s}, tableSize, shift) // every position incl. S-1
			}
			check([]int{0, tableSize - 1}, tableSize, shift) // wrap pair
			check([]int{tableSize - 2, tableSize - 1}, tableSize, shift)
			for i := 0; i < 8; i++ {
				k := 1 + rng.Intn(tableSize-1)
				set := rng.Perm(tableSize)[:k]
				check(set, tableSize, shift)
			}
		}
	}
}

func TestSlotsForLatencyInvertsBound(t *testing.T) {
	shift := 4
	for _, budget := range []float64{150, 250, 400} {
		k, err := SlotsForLatency(budget, shift, 32, 500)
		if err != nil {
			t.Fatalf("budget %v: %v", budget, err)
		}
		if got := LatencyBoundNs(shift, EvenSlots(k, 32), 32, 500); got > budget {
			t.Errorf("budget %v: k=%d gives bound %v", budget, k, got)
		}
	}
	if _, err := SlotsForLatency(10, shift, 32, 500); err == nil {
		t.Error("accepted a budget below the fixed path delay")
	}
}

// TestSlotsForLatencyFlooredGap is the regression for the revolution-wait
// undercount: with a fractional tolerable gap the historical sizing took
// k = ceil(S/gap) on the *fractional* gap, but an even spread of k slots
// realises a MaxGap of ceil(S/k), which can exceed the fractional gap and
// blow the budget by one flit cycle. Budget 37.2 ns on a one-shift path
// at S=8 tolerates gap 1.2: the old answer k=7 realises MaxGap 2
// (bound 42 ns > budget); the floored sizing returns k=8 (36 ns).
func TestSlotsForLatencyFlooredGap(t *testing.T) {
	shift := 1
	const budget = 37.2
	k, err := SlotsForLatency(budget, shift, 8, 500)
	if err != nil {
		t.Fatal(err)
	}
	if k != 8 {
		t.Errorf("SlotsForLatency(%v) = %d, want 8", budget, k)
	}
	if got := LatencyBoundNs(shift, EvenSlots(k, 8), 8, 500); got > budget {
		t.Errorf("k=%d realises bound %v > budget %v", k, got, budget)
	}
	// The historical answer violates the budget — keep the counterexample
	// honest in case the constants drift.
	if old := LatencyBoundNs(shift, EvenSlots(7, 8), 8, 500); old <= budget {
		t.Errorf("counterexample went stale: k=7 bound %v fits budget %v", old, budget)
	}
}

// TestSlotsForLatencyQuick: the slot count returned by SlotsForLatency,
// spread evenly, always satisfies the budget it was sized for — across
// small tables where fractional gaps bite hardest.
func TestSlotsForLatencyQuick(t *testing.T) {
	f := func(rawBudget uint16, rawShift, rawTable uint8) bool {
		tables := []int{4, 8, 12, 16, 32, 64}
		tableSize := tables[int(rawTable)%len(tables)]
		shift := 1 + int(rawShift%6)
		budget := 30 + float64(rawBudget%1000)/2
		k, err := SlotsForLatency(budget, shift, tableSize, 500)
		if err != nil {
			return true // infeasible budgets may error
		}
		return LatencyBoundNs(shift, EvenSlots(k, tableSize), tableSize, 500) <= budget+1e-9
	}
	cfg := &quick.Config{MaxCount: 4000, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestBurstSlotTimes(t *testing.T) {
	cases := []struct{ tx, want int }{{1, 1}, {2, 1}, {3, 2}, {4, 2}, {16, 8}, {0, 1}}
	for _, c := range cases {
		if got := BurstSlotTimes(c.tx, false); got != c.want {
			t.Errorf("BurstSlotTimes(%d) = %d, want %d", c.tx, got, c.want)
		}
	}
	// Reliable: one payload word per slot, so slot times equal words.
	relCases := []struct{ tx, want int }{{1, 1}, {2, 2}, {4, 4}, {16, 16}, {0, 1}}
	for _, c := range relCases {
		if got := BurstSlotTimes(c.tx, true); got != c.want {
			t.Errorf("BurstSlotTimes(%d, reliable) = %d, want %d", c.tx, got, c.want)
		}
	}
}

func TestBurstBoundUsesWindow(t *testing.T) {
	shift := 2
	// Slots 0,2,5 in table 8: windows. For tx=4 words (m=2), worst
	// 2-gap window = 6.
	set := []int{0, 2, 5}
	b := LatencyBoundBurstNs(shift, set, 8, 500, 4, false)
	want := float64(3*(6+1)+FixedPathCycles(shift)) * 2
	if b != want {
		t.Errorf("burst bound = %v, want %v", b, want)
	}
	// m=1 matches the plain bound.
	if got, plain := LatencyBoundBurstNs(shift, set, 8, 500, 2, false), LatencyBoundNs(shift, set, 8, 500); got != plain {
		t.Errorf("m=1 burst bound %v != plain %v", got, plain)
	}
	// Reliable accounting widens the service window (4 words need 4
	// slot times, not 2), never narrows it.
	if rel := LatencyBoundBurstNs(shift, set, 8, 500, 4, true); rel < b {
		t.Errorf("reliable burst bound %v < baseline %v", rel, b)
	}
}

// TestBurstSizingQuick: the slot count returned by SlotsForBurstLatency,
// spread evenly, always satisfies the budget it was sized for — in both
// accounting modes and down to small tables.
func TestBurstSizingQuick(t *testing.T) {
	f := func(rawBudget uint16, rawTx, rawShift, rawTable uint8) bool {
		tables := []int{8, 16, 32, 64}
		tableSize := tables[int(rawTable)%len(tables)]
		shift := 1 + int(rawShift%6)
		tx := 1 + int(rawTx%32)
		budget := 100 + float64(rawBudget%2000)
		reliable := rawTx%2 == 0
		k, err := SlotsForBurstLatency(budget, tx, shift, tableSize, 500, reliable)
		if err != nil {
			return true // infeasible budgets may error
		}
		return LatencyBoundBurstNs(shift, EvenSlots(k, tableSize), tableSize, 500, tx, reliable) <= budget+1e-9
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestConnectionBounds(t *testing.T) {
	shift := 3
	set := []int{0, 8}
	b := ConnectionBounds(shift, set, 16, 500, 4, Mode{})
	if b.SlotCount != 2 || b.MaxGapSlots != 8 {
		t.Errorf("bounds = %+v", b)
	}
	if want := LatencyBoundNs(shift, set, 16, 500); b.LatencyNs != want {
		t.Errorf("LatencyNs = %v, want %v", b.LatencyNs, want)
	}
	if want := ThroughputGuaranteeMBps(2, 500, 4, 16, false); b.GuaranteeMBps != want {
		t.Errorf("GuaranteeMBps = %v, want %v", b.GuaranteeMBps, want)
	}
	// Transactional mode uses the window bound; reliable mode halves
	// the guarantee.
	tb := ConnectionBounds(shift, set, 16, 500, 4, Mode{Transactional: true, TxWords: 4})
	if want := LatencyBoundBurstNs(shift, set, 16, 500, 4, false); tb.LatencyNs != want {
		t.Errorf("transactional LatencyNs = %v, want %v", tb.LatencyNs, want)
	}
	rb := ConnectionBounds(shift, set, 16, 500, 4, Mode{Reliable: true})
	if math.Abs(rb.GuaranteeMBps-b.GuaranteeMBps/2) > 1e-9 {
		t.Errorf("reliable GuaranteeMBps = %v, want half of %v", rb.GuaranteeMBps, b.GuaranteeMBps)
	}
}

func TestWindowSlotsForBudget(t *testing.T) {
	shift := 2
	w, err := WindowSlotsForBudget(200, shift, 500)
	if err != nil {
		t.Fatal(err)
	}
	// fixed = (5+6+4+3)*2 = 36 ns; (200-36)/6 = 27.3 -> 27.
	if w != 27 {
		t.Errorf("window = %d, want 27", w)
	}
	if _, err := WindowSlotsForBudget(30, shift, 500); err == nil {
		t.Error("accepted budget below fixed delay")
	}
}

func TestCreditMath(t *testing.T) {
	revShift := 3
	rt := CreditRoundTripSlots([]int{0, 16}, revShift, 32)
	if rt != 16+3+2 {
		t.Errorf("round trip = %d", rt)
	}
	cap := RecvCapacityWords(4, rt, 32)
	// 12 words/rev * (21/32 + 1) + 6 = 12*1.656+6 = 25.9 -> 26.
	if cap < 24 || cap > 28 {
		t.Errorf("capacity = %d", cap)
	}
	if got := RevSlots(10, 31); got != 1 {
		t.Errorf("RevSlots(10) = %d", got)
	}
	if got := RevSlots(62, 31); got != 2 {
		t.Errorf("RevSlots(62) = %d", got)
	}
	if got := RevSlots(0, 31); got != 1 {
		t.Errorf("RevSlots(0) = %d", got)
	}
}

func TestMaxGapWindowConsistency(t *testing.T) {
	// MaxGapWindow(m=1) equals MaxGap for any set.
	sets := [][]int{{0}, {0, 5}, {1, 2, 9}, {0, 4, 8, 12}}
	for _, s := range sets {
		if a, b := slots.MaxGapWindow(s, 16, 1), slots.MaxGap(s, 16); a != b {
			t.Errorf("window(1)=%d maxgap=%d for %v", a, b, s)
		}
	}
}
