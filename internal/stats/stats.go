package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Finite sanitises a value bound for a JSON artifact: NaN and the
// infinities — the usual residue of dividing by a zero count or an empty
// time span — encode as zero, which every consumer already treats as
// "no data". encoding/json rejects them outright, so one leaked NaN
// would otherwise fail the whole artifact write.
func Finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// A Summary accumulates a stream of float64 samples.
type Summary struct {
	n          int64
	sum, sumSq float64
	min, max   float64
}

// Add records one sample.
func (s *Summary) Add(v float64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
	s.sumSq += v * v
}

// N returns the sample count.
func (s *Summary) N() int64 { return s.n }

// Mean returns the arithmetic mean, or NaN with no samples.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.sum / float64(s.n)
}

// Min returns the smallest sample, or NaN with no samples — an empty
// summary must be distinguishable from one whose smallest sample is 0
// (a real 0 ps latency exists: same-instant probe observations).
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest sample, or NaN with no samples.
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.max
}

// Range returns the smallest and largest samples and whether any sample
// exists — the ok-bool form of Min/Max for callers that prefer explicit
// emptiness over NaN propagation.
func (s *Summary) Range() (min, max float64, ok bool) {
	if s.n == 0 {
		return 0, 0, false
	}
	return s.min, s.max, true
}

// StdDev returns the population standard deviation, or 0 with no samples.
func (s *Summary) StdDev() float64 {
	if s.n == 0 {
		return 0
	}
	m := s.sum / float64(s.n)
	v := s.sumSq/float64(s.n) - m*m
	if v < 0 {
		v = 0 // numerical noise
	}
	return math.Sqrt(v)
}

func (s *Summary) String() string {
	if s.n == 0 {
		return "n=0 (empty)"
	}
	return fmt.Sprintf("n=%d mean=%.1f min=%.1f max=%.1f sd=%.1f", s.n, s.Mean(), s.min, s.max, s.StdDev())
}

// A Histogram is the exact multiset of its samples and answers percentile
// queries. It embeds a Summary.
//
// A TDM connection's latency takes a handful of values over and over, so
// the samples are stored as ascending (value, count) runs: 16 bytes per
// distinct value whatever the run length, which even when no two samples
// are equal is what a float64 per sample plus a sorted copy would take.
// A whole non-negative sample near the first one — a synchronous latency
// in nanoseconds — is counted in a dense window of windowLen counters;
// any other sample is counted in its run when it has one, and otherwise
// drops into a fixed-size unsorted staging buffer that is sorted and
// merged into the runs when full. Window and buffer are folded into the
// runs before any query, so Add retains nothing per sample and costs O(1)
// in the window and O(log distinct) or amortised O(1 + distinct/stageCap)
// outside it. Insertion order is not kept.
//
// Values are ordered numerically with two refinements that make the order
// total: -0 sorts before +0 (they are distinct values of the multiset),
// and every NaN is the same value, sorted before -Inf as sort.Float64s
// orders it. A NaN sample therefore occupies one shared run, is what
// Percentile(0) returns, and poisons the Summary's mean, deviation and
// range as IEEE arithmetic dictates.
type Histogram struct {
	Summary
	runs  []run    // ascending by key, keys distinct, counts positive
	stage []uint64 // keys not yet merged into runs, unsorted, cap stageCap
	// win[i] counts the samples equal to lo+i not yet merged into runs;
	// nil until the first whole non-negative sample up to maxExactSample
	// places it.
	win []uint32
	lo  float64
	// hit is the index of the run push last counted a sample in place
	// at; a stale index fails the key check.
	hit int
}

// A run is one distinct value, as its order-preserving key, and its
// multiplicity.
type run struct {
	key uint64
	n   int64
}

// stageCap sizes the staging buffer: 2 KiB per histogram that has seen a
// sample. The merge walks every run once per stageCap samples, so the
// constant bounds Add's amortised cost on streams with many distinct
// values (plesiochronous clocks) at distinct/256 run visits per sample.
const stageCap = 256

// windowLen is the span of the dense window, in whole values: a
// synchronous connection's latencies take under 200 distinct values.
const windowLen = 256

// keyOf maps a sample to an integer whose unsigned order is the
// histogram's value order: negative floats have all bits flipped,
// non-negative ones the sign bit set, and NaN takes key 0, below -Inf.
func keyOf(v float64) uint64 {
	if v != v {
		return 0
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// valueOf inverts keyOf.
func valueOf(k uint64) float64 {
	switch {
	case k == 0:
		return math.NaN()
	case k>>63 != 0:
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	h.Summary.Add(v)
	// In range, the conversion tests integrality without calling Trunc.
	if h.win == nil && v >= 0 && v <= maxExactSample && v == float64(int64(v)) {
		h.win = make([]uint32, windowLen)
		h.lo = max(0, v-windowLen/2)
	}
	// The window holds whole values from lo; -0 is not +0, and NaN fails
	// the range test.
	if d := v - h.lo; d >= 0 && d < windowLen && h.win != nil {
		if i := int(d); float64(i) == d && math.Float64bits(v)>>63 == 0 {
			if h.win[i]++; h.win[i] == math.MaxUint32 {
				h.foldWindow()
			}
			return
		}
	}
	h.push(keyOf(v))
}

// push counts the sample of key k: in place when the runs hold its value
// already, as they soon do for the few values a periodic stream repeats,
// and in the staging buffer otherwise.
func (h *Histogram) push(k uint64) {
	if i := h.hit; i < len(h.runs) && h.runs[i].key == k {
		h.runs[i].n++
		return
	}
	lo, hi := 0, len(h.runs)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); h.runs[m].key < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(h.runs) && h.runs[lo].key == k {
		h.runs[lo].n++
		h.hit = lo
		return
	}
	if len(h.stage) == cap(h.stage) {
		if h.stage == nil {
			h.stage = make([]uint64, 0, stageCap)
		} else {
			h.flushStage()
		}
	}
	h.stage = append(h.stage, k)
}

// AddRepeated records the samples of tail, in order, times times over: the
// same histogram, bit for bit, as that many passes of Add over tail. The
// multiset is touched once per sample of tail, not once per pass, and so
// are the Summary's sums when every addition a pass loop would make is
// exact (Summary.foldExact); otherwise they accumulate one sample at a
// time in that order.
func (h *Histogram) AddRepeated(tail []float64, times int64) {
	if times <= 0 {
		return
	}
	for _, v := range tail {
		h.Add(v)
	}
	h.flush()
	for _, v := range tail {
		i, _ := slices.BinarySearchFunc(h.runs, keyOf(v), compareRunKey)
		h.runs[i].n += times - 1
	}
	if h.Summary.foldExact(tail, times-1) {
		return
	}
	for e := int64(1); e < times; e++ {
		for _, v := range tail {
			h.Summary.Add(v)
		}
	}
}

// Exact integer arithmetic in float64: a sample up to maxExactSample
// squares to at most 2^52, and every integer of magnitude below
// maxExactSum is a float64.
const (
	maxExactSample = 1 << 26
	maxExactSum    = 1 << 53
)

// foldExact adds times passes over tail, whose samples s has already seen
// (so the range cannot move), in O(len(tail)) when that gives the same
// bits as adding them one at a time, and reports whether it did. It does
// when every sample is a non-negative integer up to maxExactSample and
// both sums are integers that stay below maxExactSum through the last
// pass: then every partial sum the loop would form is an integer of
// smaller magnitude, so every addition is exact. Latencies on a
// synchronous grid are whole nanoseconds and take this path; fractional
// ones (mesochronous links) do not.
func (s *Summary) foldExact(tail []float64, times int64) bool {
	// One pass's sums. An integer sample is at most its square, so
	// bounding sumSq bounds sum too.
	var sum, sumSq int64
	for _, v := range tail {
		if !(v >= 0 && v <= maxExactSample && v == math.Trunc(v)) {
			return false
		}
		sum += int64(v)
		if sumSq += int64(v * v); sumSq >= maxExactSum {
			return false
		}
	}
	total := func(acc float64, pass int64) (float64, bool) {
		if acc != math.Trunc(acc) || math.Abs(acc) >= maxExactSum {
			return 0, false // also NaN and the infinities
		}
		a := int64(acc)
		if pass > 0 && times > (maxExactSum-1-a)/pass {
			return 0, false
		}
		return float64(a + times*pass), true
	}
	newSum, ok1 := total(s.sum, sum)
	newSumSq, ok2 := total(s.sumSq, sumSq)
	if !ok1 || !ok2 {
		return false
	}
	s.n += times * int64(len(tail))
	s.sum, s.sumSq = newSum, newSumSq
	return true
}

func compareRunKey(r run, k uint64) int { return cmp.Compare(r.key, k) }

// flush merges everything the window and the staging buffer hold into
// the runs.
func (h *Histogram) flush() {
	h.flushStage()
	h.foldWindow()
}

// foldWindow merges the window's counts into the runs and clears it. Its
// values ascend with their keys, being whole and non-negative.
func (h *Histogram) foldWindow() {
	var buf [windowLen]run
	counted := buf[:0]
	for i, c := range h.win {
		if c != 0 {
			counted = append(counted, run{keyOf(h.lo + float64(i)), int64(c)})
			h.win[i] = 0
		}
	}
	if len(counted) > 0 {
		h.merge(counted)
	}
}

// flushStage empties the staging buffer into the runs.
func (h *Histogram) flushStage() {
	if len(h.stage) == 0 {
		return
	}
	slices.Sort(h.stage)
	var buf [stageCap]run
	staged := buf[:0]
	for _, k := range h.stage {
		if n := len(staged); n > 0 && staged[n-1].key == k {
			staged[n-1].n++
		} else {
			staged = append(staged, run{k, 1})
		}
	}
	h.stage = h.stage[:0]
	h.merge(staged)
}

// merge folds src, ascending with distinct keys, into h.runs in place:
// grow by the number of keys h lacks, then merge from the back so no run
// is overwritten before it is read.
func (h *Histogram) merge(src []run) {
	missing, i := 0, 0
	for _, s := range src {
		for i < len(h.runs) && h.runs[i].key < s.key {
			i++
		}
		if i == len(h.runs) || h.runs[i].key != s.key {
			missing++
		}
	}
	i = len(h.runs) - 1
	h.runs = slices.Grow(h.runs, missing)[:len(h.runs)+missing]
	w := len(h.runs) - 1
	for j := len(src) - 1; j >= 0; w-- {
		switch {
		case i >= 0 && h.runs[i].key > src[j].key:
			h.runs[w] = h.runs[i]
			i--
		case i >= 0 && h.runs[i].key == src[j].key:
			h.runs[w] = run{src[j].key, h.runs[i].n + src[j].n}
			i--
			j--
		default:
			h.runs[w] = src[j]
			j--
		}
	}
}

// Percentile returns the p-th percentile (0..100) using nearest-rank. It
// returns NaN with no samples.
func (h *Histogram) Percentile(p float64) float64 {
	h.flush()
	if len(h.runs) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return valueOf(h.runs[0].key)
	}
	last := h.runs[len(h.runs)-1]
	if p >= 100 {
		return valueOf(last.key)
	}
	rank := int64(math.Ceil(p / 100 * float64(h.n)))
	var seen int64
	for _, r := range h.runs {
		if seen += r.n; seen >= rank {
			return valueOf(r.key)
		}
	}
	return valueOf(last.key)
}
