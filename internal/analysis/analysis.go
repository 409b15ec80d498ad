package analysis

import (
	"fmt"
	"math"

	"repro/internal/phit"
	"repro/internal/slots"
)

// PayloadWordsPerSlot is the guaranteed payload capacity of one reserved
// slot under the baseline protocol (header + 2 payload words of the
// 3-word flit).
const PayloadWordsPerSlot = phit.FlitWords - 1

// PayloadWordsPerSlotReliable is the guaranteed payload capacity of one
// reserved slot with the reliability shell: the sideband word is counted
// in-band, so only one word per flit is guaranteed payload.
const PayloadWordsPerSlotReliable = phit.FlitWords - 2

// SlotPayloadWords returns the guaranteed payload words one reserved slot
// carries under the selected protocol shell.
func SlotPayloadWords(reliable bool) int {
	if reliable {
		return PayloadWordsPerSlotReliable
	}
	return PayloadWordsPerSlot
}

// SlotBandwidthMBps returns the guaranteed bandwidth, in Mbyte/s, of one
// reserved slot in a table of tableSize slots at fMHz with wordBytes-wide
// links: SlotPayloadWords(reliable) words every table revolution.
func SlotBandwidthMBps(fMHz float64, wordBytes, tableSize int, reliable bool) float64 {
	revolutionsPerSec := fMHz * 1e6 / float64(phit.FlitWords*tableSize)
	return revolutionsPerSec * float64(SlotPayloadWords(reliable)) * float64(wordBytes) / 1e6
}

// SlotsForBandwidth returns the number of slots needed to guarantee
// rateMBps. It returns an error when the rate exceeds the link capacity.
func SlotsForBandwidth(rateMBps, fMHz float64, wordBytes, tableSize int, reliable bool) (int, error) {
	per := SlotBandwidthMBps(fMHz, wordBytes, tableSize, reliable)
	n := int(math.Ceil(rateMBps / per))
	if n < 1 {
		n = 1
	}
	if n > tableSize {
		return 0, fmt.Errorf("analysis: %.1f Mbyte/s needs %d slots but the table has %d (link capacity %.1f Mbyte/s)",
			rateMBps, n, tableSize, per*float64(tableSize))
	}
	return n, nil
}

// Latency model constants, in cycles. See LatencyBoundNs for the
// decomposition.
const (
	// niInjectCycles covers acceptance into the IP-side bi-synchronous
	// FIFO (1 cycle visibility), the wait for the next flit-cycle
	// boundary (up to 2 cycles), and serialisation within the flit (the
	// word may be the second payload word: +2 cycles).
	niInjectCycles = 5
	// deliveryCycles covers the destination-side registration of the
	// payload word after the last link (sample + receive processing).
	deliveryCycles = 4
)

// FixedPathCycles returns the load-independent part of the latency: NI
// injection overhead plus the transit. shift is the transit in flit
// cycles from the source NI to the last link: on a mesh every router hop
// and every link pipeline stage adds one (the route's TotalShift), on a
// ring every segment does (its hops).
func FixedPathCycles(shift int) int {
	return niInjectCycles + phit.FlitWords*shift + deliveryCycles
}

// LatencyBoundNs returns the worst-case latency, in nanoseconds, for a
// word of a connection with the given slot assignment, assuming the
// connection's offered load does not exceed its allocated bandwidth (the
// paper's GS contract; an oversubscribing IP only slows itself down).
//
// Decomposition: a word that just misses a slot decision waits at most
// MaxGap slots for the next owned slot (3·MaxGap cycles), plus one slot of
// decision granularity, plus the fixed path delay. For a single-slot
// reservation MaxGap is the whole table revolution regardless of where the
// slot sits — a reservation at slot S-1 whose per-link shift wraps to slot
// 0 waits exactly as long as one at slot 0 (TestLatencyBoundBruteForce
// pins this against a cycle-level slot walk).
func LatencyBoundNs(shift int, slotSet []int, tableSize int, fMHz float64) float64 {
	gap := slots.MaxGap(slotSet, tableSize)
	cycles := phit.FlitWords*(gap+1) + FixedPathCycles(shift)
	return float64(cycles) * 1e3 / fMHz
}

// EvenSlots returns k slot positions spread as evenly as the table allows
// — the placement the inverse sizing functions assume.
func EvenSlots(k, tableSize int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = i * tableSize / k
	}
	return out
}

// SlotsForLatency returns the minimum evenly-spread slot count that meets
// a latency budget (ns), or an error if the fixed path delay alone
// exceeds the budget (no slot count can help).
func SlotsForLatency(budgetNs float64, shift int, tableSize int, fMHz float64) (int, error) {
	cycleNs := 1e3 / fMHz
	fixed := float64(FixedPathCycles(shift)+phit.FlitWords) * cycleNs
	if fixed >= budgetNs {
		return 0, fmt.Errorf("analysis: fixed path delay %.1f ns exceeds budget %.1f ns (%d total shift)",
			fixed, budgetNs, shift)
	}
	// Need 3*gap cycles <= budget - fixed. The tolerable gap is a whole
	// number of slots and must be floored: rounding the fractional gap up
	// (the historical behaviour) undercounted the revolution wait by up
	// to one flit cycle — evenly spread k = ceil(S/gap) slots realise a
	// MaxGap of ceil(S/k), which only stays within a *floored* gap.
	gap := int((budgetNs - fixed) / (float64(phit.FlitWords) * cycleNs))
	if gap < 1 {
		// Even a fully-owned table has a service gap of one slot; a
		// budget that tolerates less is infeasible at any slot count
		// (clamping here used to hide a bound violation of up to one
		// flit cycle).
		return 0, fmt.Errorf("analysis: budget %.1f ns tolerates under one slot of wait (fixed delay %.1f ns); infeasible at any slot count", budgetNs, fixed)
	}
	k := (tableSize + gap - 1) / gap
	if k < 1 {
		k = 1
	}
	// Defensive exactness: advance k until the realised even-spread bound
	// meets the budget (at most tableSize steps).
	for ; k <= tableSize; k++ {
		if slots.MaxGap(EvenSlots(k, tableSize), tableSize) <= gap {
			return k, nil
		}
	}
	return 0, fmt.Errorf("analysis: budget %.1f ns needs more than %d slots", budgetNs, tableSize)
}

// BurstSlotTimes returns the number of owned-slot service times a whole
// transaction of txWords words needs under the selected protocol shell
// (conservatively ignoring header elision).
func BurstSlotTimes(txWords int, reliable bool) int {
	per := SlotPayloadWords(reliable)
	m := (txWords + per - 1) / per
	if m < 1 {
		m = 1
	}
	return m
}

// LatencyBoundBurstNs bounds the latency of *any* word of a transaction
// of txWords words arriving to an empty queue: serving the whole
// transaction takes at most the worst window of BurstSlotTimes(txWords)
// consecutive reservation gaps (slots.MaxGapWindow), plus one slot of
// decision granularity and the fixed path delay.
func LatencyBoundBurstNs(shift int, slotSet []int, tableSize int, fMHz float64, txWords int, reliable bool) float64 {
	w := slots.MaxGapWindow(slotSet, tableSize, BurstSlotTimes(txWords, reliable))
	cycles := phit.FlitWords*(w+1) + FixedPathCycles(shift)
	return float64(cycles) * 1e3 / fMHz
}

// SlotsForBurstLatency returns the minimum evenly-spread slot count whose
// worst BurstSlotTimes-gap window meets the budget, or an error when even
// a full table cannot. The analytic seed k = ceil(m*S/w) assumes perfectly
// uniform gaps; real even spreads mix floor and ceil gaps, so the window
// is re-checked and k advanced until the realised placement fits —
// without the re-check the window could undercount by one flit cycle per
// uneven gap.
func SlotsForBurstLatency(budgetNs float64, txWords int, shift int, tableSize int, fMHz float64, reliable bool) (int, error) {
	w, err := WindowSlotsForBudget(budgetNs, shift, fMHz)
	if err != nil {
		return 0, err
	}
	m := BurstSlotTimes(txWords, reliable)
	k := (m*tableSize + w - 1) / w
	if k < 1 {
		k = 1
	}
	for ; k <= tableSize; k++ {
		if slots.MaxGapWindow(EvenSlots(k, tableSize), tableSize, m) <= w {
			return k, nil
		}
	}
	return 0, fmt.Errorf("analysis: burst budget %.1f ns needs more than %d slots", budgetNs, tableSize)
}

// SourceWaitBudgetNs splits a connection's latency bound at the source
// NI's output: the deterministic network transit (shift plus delivery
// registration) is subtracted, leaving the longest a word may
// legitimately sit at the source — waiting for its slot and, in
// transactional mode, behind its own transaction. A word that waits
// longer was offered out of contract (the queue ahead of it could only
// build if the IP exceeded its allocation), which is how the conformance
// auditor tells self-inflicted queueing from a fabric fault.
func SourceWaitBudgetNs(boundNs float64, shift int, fMHz float64) float64 {
	transit := float64(phit.FlitWords*shift+deliveryCycles) * 1e3 / fMHz
	return boundNs - transit
}

// WindowSlotsForBudget converts a latency budget into the largest
// tolerable service window, in slots.
func WindowSlotsForBudget(budgetNs float64, shift int, fMHz float64) (int, error) {
	cycleNs := 1e3 / fMHz
	fixed := float64(FixedPathCycles(shift)+phit.FlitWords) * cycleNs
	if fixed >= budgetNs {
		return 0, fmt.Errorf("analysis: fixed path delay %.1f ns exceeds budget %.1f ns", fixed, budgetNs)
	}
	w := int((budgetNs - fixed) / (float64(phit.FlitWords) * cycleNs))
	if w < 1 {
		return 0, fmt.Errorf("analysis: budget %.1f ns tolerates under one slot of service window (fixed delay %.1f ns)", budgetNs, fixed)
	}
	return w, nil
}

// ThroughputGuaranteeMBps returns the guaranteed bandwidth of a slot
// assignment.
func ThroughputGuaranteeMBps(slotCount int, fMHz float64, wordBytes, tableSize int, reliable bool) float64 {
	return float64(slotCount) * SlotBandwidthMBps(fMHz, wordBytes, tableSize, reliable)
}

// Mode captures the protocol options that shape a connection's analytical
// contract.
type Mode struct {
	// Reliable selects the reliability shell's in-band sideband
	// accounting (1 guaranteed payload word per slot instead of 2).
	Reliable bool
	// Transactional selects the burst latency bound over the per-word
	// bound; TxWords is then the transaction size in words.
	Transactional bool
	TxWords       int
}

// Bounds is the derived worst-case contract of one connection: what the
// conformance auditor holds every simulated flit against.
type Bounds struct {
	// GuaranteeMBps is the guaranteed sustained throughput; measured
	// delivery of a saturating sender never falls below it.
	GuaranteeMBps float64
	// LatencyNs is the worst-case injection-to-delivery latency of any
	// word, valid while the connection's offered load stays within its
	// allocation.
	LatencyNs float64
	// MaxGapSlots is the reservation's worst service gap, in slots.
	MaxGapSlots int
	// SlotCount is the number of reserved slots.
	SlotCount int
}

// ConnectionBounds derives the full analytical contract of a connection
// from its slot reservation and transit shift — the single entry point
// both TDM fabrics (mesh and ring) and the audit layer share, so the
// checked bound and the built bound cannot drift apart.
func ConnectionBounds(shift int, slotSet []int, tableSize int, fMHz float64, wordBytes int, m Mode) Bounds {
	b := Bounds{
		GuaranteeMBps: ThroughputGuaranteeMBps(len(slotSet), fMHz, wordBytes, tableSize, m.Reliable),
		MaxGapSlots:   slots.MaxGap(slotSet, tableSize),
		SlotCount:     len(slotSet),
	}
	if m.Transactional {
		b.LatencyNs = LatencyBoundBurstNs(shift, slotSet, tableSize, fMHz, m.TxWords, m.Reliable)
	} else {
		b.LatencyNs = LatencyBoundNs(shift, slotSet, tableSize, fMHz)
	}
	return b
}

// CreditRoundTripSlots bounds, in slots, the time from a payload word
// being consumed at the destination to the freed credit being usable at
// the source: wait for the reverse connection's next slot (its MaxGap),
// the reverse path traversal (its shift), plus one slot of decision
// granularity at each end.
func CreditRoundTripSlots(revSlotSet []int, revShift int, tableSize int) int {
	return slots.MaxGap(revSlotSet, tableSize) + revShift + 2
}

// RecvCapacityWords sizes a receive queue (and thus the sender's initial
// credits) so that a connection can sustain its full allocated bandwidth:
// the words sent while one credit round-trip is in flight, plus two flits
// of slack (one for decision granularity, one because credits return in
// flit units and a sub-flit remainder waits at the receiver).
func RecvCapacityWords(dataSlots int, roundTripSlots, tableSize int) int {
	perRevolution := dataSlots * phit.FlitWords
	revolutions := float64(roundTripSlots)/float64(tableSize) + 1
	return int(math.Ceil(float64(perRevolution)*revolutions)) + 2*phit.FlitWords
}

// RevSlots returns the reverse (credit) connection's slot requirement.
// One header returns up to maxCredits flit-granular credits (FlitWords
// words each); the reverse channel must keep up with the data channel's
// worst-case consumption of FlitWords*dataSlots words per revolution.
func RevSlots(dataSlots, maxCredits int) int {
	n := int(math.Ceil(float64(dataSlots) / float64(maxCredits)))
	if n < 1 {
		n = 1
	}
	return n
}
