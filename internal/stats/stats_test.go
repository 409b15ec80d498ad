package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.StdDev() != 0 {
		t.Error("zero summary not zero")
	}
	// An empty summary must be distinguishable from one holding a real 0
	// sample: Min/Max/Mean are NaN, Range reports !ok.
	if !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) || !math.IsNaN(s.Mean()) {
		t.Errorf("empty summary Min/Max/Mean = %v/%v/%v, want NaN", s.Min(), s.Max(), s.Mean())
	}
	if _, _, ok := s.Range(); ok {
		t.Error("empty summary Range ok = true")
	}
	s.Add(0)
	if s.Min() != 0 || s.Max() != 0 || s.Mean() != 0 {
		t.Errorf("single 0 sample: %v", s.String())
	}
	if _, _, ok := s.Range(); !ok {
		t.Error("non-empty summary Range ok = false")
	}
}

// multiset returns h's runs with everything staged merged in.
func multiset(h *Histogram) []run {
	h.flush()
	return h.runs
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if got := s.StdDev(); math.Abs(got-2) > 1e-9 {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if s.String() == "" {
		t.Error("empty String")
	}
}

func TestSummaryNegative(t *testing.T) {
	var s Summary
	s.Add(-5)
	s.Add(-1)
	if s.Min() != -5 || s.Max() != -1 || s.Mean() != -3 {
		t.Errorf("negative handling: %v", s.String())
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	if !math.IsNaN(h.Percentile(50)) {
		t.Error("empty percentile not NaN")
	}
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {1, 1}, {50, 50}, {99, 99}, {100, 100}, {150, 100},
	}
	for _, c := range cases {
		if got := h.Percentile(c.p); got != c.want {
			t.Errorf("P%.0f = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestHistogramQuick: percentiles are order statistics — P100 is max, P0
// is min, and percentiles are monotone.
func TestHistogramQuick(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			h.Add(v)
		}
		sorted := append([]float64(nil), raw...)
		sort.Float64s(sorted)
		if h.Percentile(0) != sorted[0] || h.Percentile(100) != sorted[len(sorted)-1] {
			return false
		}
		last := math.Inf(-1)
		for p := 5.0; p <= 100; p += 5 {
			v := h.Percentile(p)
			if v < last {
				return false
			}
			last = v
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramDegenerate pins the total behaviour of percentile queries
// on empty and single-sample histograms — the shapes every undelivered or
// single-word connection produces in a short run.
func TestHistogramDegenerate(t *testing.T) {
	var empty Histogram
	for _, p := range []float64{-5, 0, 50, 99, 100, 150} {
		if got := empty.Percentile(p); !math.IsNaN(got) {
			t.Errorf("empty P%.0f = %v, want NaN", p, got)
		}
	}

	var one Histogram
	one.Add(-3.5)
	for _, p := range []float64{-5, 0, 50, 99, 100, 150} {
		if got := one.Percentile(p); got != -3.5 {
			t.Errorf("single-sample P%.0f = %v, want -3.5", p, got)
		}
	}
}

// TestHistogramStaleSortWindow: a query merges the staging buffer into the
// runs; samples that arrive after it must still be seen by the next query,
// and no interleaving of Percentile and Add may lose or double a sample.
func TestHistogramStaleSortWindow(t *testing.T) {
	var h Histogram
	h.Add(30)
	h.Add(10)
	_ = h.Percentile(50) // merges the staged samples
	h.Add(20)            // arrives after the merge
	if got := h.Percentile(100); got != 30 {
		t.Errorf("P100 after interleaved Add = %v, want 30", got)
	}
	if got := h.Percentile(50); got != 20 {
		t.Errorf("P50 after interleaved Add = %v, want 20", got)
	}
	h.Add(20)
	if got, want := multiset(&h), []run{{keyOf(10), 1}, {keyOf(20), 2}, {keyOf(30), 1}}; !slices.Equal(got, want) {
		t.Errorf("multiset after interleaving = %v, want %v", got, want)
	}
}

func TestHistogramInterleavedAddAndQuery(t *testing.T) {
	var h Histogram
	h.Add(10)
	if h.Percentile(50) != 10 {
		t.Error("single sample percentile")
	}
	h.Add(20) // must re-sort after the earlier query
	if got := h.Percentile(100); got != 20 {
		t.Errorf("max after re-add = %v", got)
	}
	if h.N() != 2 {
		t.Errorf("N = %d", h.N())
	}
}

// oracle is the histogram this package had before the run-length store:
// every sample kept, a sorted copy made per query. It is the reference
// the multiset is compared against, bit for bit. Its sort is
// sort.Float64s's order with the one tie that leaves open (-0 against +0,
// which the old code returned in whichever order the sort happened to
// leave them) broken the way Histogram documents: -0 first.
type oracle struct {
	Summary
	samples []float64
	ordered []float64 // sorted copy, current iff as long as samples
}

func (o *oracle) Add(v float64) {
	o.Summary.Add(v)
	o.samples = append(o.samples, v)
}

func (o *oracle) AddRepeated(tail []float64, times int64) {
	for e := int64(0); e < times; e++ {
		for _, v := range tail {
			o.Add(v)
		}
	}
}

func (o *oracle) sorted() []float64 {
	if len(o.ordered) != len(o.samples) {
		s := append(o.ordered[:0], o.samples...)
		sort.Slice(s, func(i, j int) bool {
			a, b := s[i], s[j]
			return a < b || (math.IsNaN(a) && !math.IsNaN(b)) || (a == b && math.Signbit(a) && !math.Signbit(b))
		})
		o.ordered = s
	}
	return o.ordered
}

func (o *oracle) Percentile(p float64) float64 {
	s := o.sorted()
	if len(s) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// sameFloat is bit equality, with every NaN equal to every other: the
// multiset does not keep NaN payloads.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func compareToOracle(t *testing.T, what string, h *Histogram, o *oracle) {
	t.Helper()
	if h.N() != o.N() {
		t.Fatalf("%s: N = %d, oracle %d", what, h.N(), o.N())
	}
	for name, pair := range map[string][2]float64{
		"Min": {h.Min(), o.Min()}, "Max": {h.Max(), o.Max()},
		"Mean": {h.Mean(), o.Mean()}, "StdDev": {h.StdDev(), o.StdDev()},
	} {
		if !sameFloat(pair[0], pair[1]) {
			t.Fatalf("%s: %s = %v (%#x), oracle %v (%#x)", what, name,
				pair[0], math.Float64bits(pair[0]), pair[1], math.Float64bits(pair[1]))
		}
	}
	for _, p := range []float64{0, 1, 50, 99, 99.9, 100} {
		if got, want := h.Percentile(p), o.Percentile(p); !sameFloat(got, want) {
			t.Fatalf("%s: P%v = %v (%#x), oracle %v (%#x)", what, p,
				got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	var total int64
	for i, r := range multiset(h) {
		if r.n <= 0 || (i > 0 && h.runs[i-1].key >= r.key) {
			t.Fatalf("%s: runs not strictly ascending with positive counts at %d: %v", what, i, h.runs)
		}
		total += r.n
	}
	if total != h.N() {
		t.Fatalf("%s: run counts sum to %d, N = %d", what, total, h.N())
	}
}

// TestHistogramAgainstOracle feeds seeded streams to the multiset and to
// the sort-everything oracle and requires identical answers.
func TestHistogramAgainstOracle(t *testing.T) {
	special := []float64{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, -1, 2.5, math.MaxFloat64, -math.MaxFloat64, 5e-324}
	streams := map[string]func(rng *rand.Rand) float64{
		// A TDM connection: a handful of latencies, over and over.
		"duplicate-heavy": func(rng *rand.Rand) float64 { return 48 + 2*float64(rng.Intn(27)) },
		// No value repeats, so every flush grows the runs.
		"all-distinct":   func(rng *rand.Rand) float64 { return (rng.Float64() - 0.3) * 1e6 },
		"zeros-and-infs": func(rng *rand.Rand) float64 { return special[rng.Intn(len(special))] },
		"signed-zeros":   func(rng *rand.Rand) float64 { return math.Copysign(0, float64(rng.Intn(2))-0.5) },
		"with-nan": func(rng *rand.Rand) float64 {
			if rng.Intn(8) == 0 {
				return math.NaN()
			}
			return float64(rng.Intn(40))
		},
	}
	for name, next := range streams {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var h Histogram
			var o oracle
			// 20 staging buffers' worth, checked at sizes that leave the
			// buffer empty, part full and just overflowed.
			for i := 1; i <= 20*stageCap+3; i++ {
				v := next(rng)
				h.Add(v)
				o.Add(v)
				if i == 1 || i == stageCap-1 || i == stageCap || i == stageCap+1 || i%(7*stageCap+5) == 0 {
					compareToOracle(t, fmt.Sprintf("%s seed %d after %d", name, seed, i), &h, &o)
				}
			}
			compareToOracle(t, fmt.Sprintf("%s seed %d at end", name, seed), &h, &o)
		}
	}
}

// TestHistogramOpsAgainstOracle interleaves every mutating and querying
// operation in a seeded random order.
func TestHistogramOpsAgainstOracle(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		value := func() float64 {
			if rng.Intn(3) == 0 {
				return rng.NormFloat64() * 100 // fresh
			}
			return float64(rng.Intn(30)) / 4 // recurring, includes +0
		}
		var h Histogram
		var o oracle
		for step := 0; step < 200; step++ {
			switch rng.Intn(4) {
			case 0, 1:
				for i := rng.Intn(2 * stageCap); i > 0; i-- {
					v := value()
					h.Add(v)
					o.Add(v)
				}
			case 2:
				tail := make([]float64, rng.Intn(stageCap+40))
				for i := range tail {
					tail[i] = value()
				}
				times := int64(rng.Intn(6))
				h.AddRepeated(tail, times)
				o.AddRepeated(tail, times)
			case 3:
				compareToOracle(t, fmt.Sprintf("seed %d step %d", seed, step), &h, &o)
			}
		}
		compareToOracle(t, fmt.Sprintf("seed %d at end", seed), &h, &o)
	}
}

// TestHistogramNaN pins what a NaN sample does: it is counted, all NaNs
// share the one run that sorts first, and neither a query nor a flush
// loops or grows the runs by one per NaN.
func TestHistogramNaN(t *testing.T) {
	var h Histogram
	for i := 0; i < 3*stageCap; i++ {
		h.Add(math.NaN())
		h.Add(math.Float64frombits(0xfff8000000000001)) // negative NaN with a payload
		h.Add(float64(i % 4))
	}
	if h.N() != 9*stageCap {
		t.Errorf("N = %d, want %d", h.N(), 9*stageCap)
	}
	got := multiset(&h)
	if len(got) != 5 || got[0] != (run{0, 6 * stageCap}) {
		t.Fatalf("runs = %v, want one NaN run of %d first, then 0..3", got, 6*stageCap)
	}
	if p := h.Percentile(0); !math.IsNaN(p) {
		t.Errorf("P0 = %v, want NaN", p)
	}
	if p := h.Percentile(50); !math.IsNaN(p) {
		t.Errorf("P50 = %v, want NaN (two samples in three are)", p)
	}
	if p := h.Percentile(100); p != 3 {
		t.Errorf("P100 = %v, want 3", p)
	}
	if !math.IsNaN(h.Mean()) {
		t.Errorf("Mean = %v, want NaN", h.Mean())
	}
}

// TestHistogramAddDoesNotAllocate: once a histogram has met its values,
// recording more of them retains nothing, flushes included.
func TestHistogramAddDoesNotAllocate(t *testing.T) {
	var h Histogram
	for i := 0; i < 4*stageCap; i++ {
		h.Add(float64(i % 200))
	}
	i := 0
	if a := testing.AllocsPerRun(10*stageCap, func() {
		h.Add(float64(i % 200))
		i += 7
	}); a != 0 {
		t.Errorf("Add allocates %v times per call on a warmed histogram", a)
	}
	if h.N() != 4*stageCap+10*stageCap+1 {
		t.Errorf("N = %d", h.N())
	}
}

// TestHistogramWindow: a whole non-negative first sample places the dense
// window around it; whole samples inside it are counted there and nothing
// else is (fractions, -0, NaN, the infinities, whole values past either
// edge), and queries see both, as the oracle does.
func TestHistogramWindow(t *testing.T) {
	var h Histogram
	var o oracle
	add := func(vs ...float64) {
		for _, v := range vs {
			h.Add(v)
			o.Add(v)
		}
	}
	add(1000)
	if h.lo != 1000-windowLen/2 {
		t.Fatalf("window placed at %v, want %v", h.lo, 1000-windowLen/2)
	}
	inside := []float64{1000, h.lo, h.lo + windowLen - 1, 999, 1001}
	add(inside...)
	if len(h.stage) != 0 {
		t.Fatalf("whole samples inside the window were staged: %v", h.stage)
	}
	outside := []float64{h.lo - 1, h.lo + windowLen, 999.5, math.Copysign(0, -1), math.NaN(),
		math.Inf(1), math.Inf(-1), -3}
	add(outside...)
	if len(h.stage) != len(outside) {
		t.Fatalf("staged %d samples, want the %d outside the window", len(h.stage), len(outside))
	}
	compareToOracle(t, "window", &h, &o)
	// A query folds the window; later samples land in it again.
	add(1000, 1000, h.lo)
	h.AddRepeated([]float64{1000, 1002, 5000}, 9)
	o.AddRepeated([]float64{1000, 1002, 5000}, 9)
	compareToOracle(t, "window after a query", &h, &o)

	// +0 places a window from 0, which -0 still does not enter.
	var z Histogram
	var oz oracle
	for _, v := range []float64{0, math.Copysign(0, -1), 0, 255, 256, math.Copysign(0, -1)} {
		z.Add(v)
		oz.Add(v)
	}
	if z.lo != 0 || len(z.stage) != 3 {
		t.Fatalf("window from %v with %d staged, want from 0 with -0, -0 and 256 staged", z.lo, len(z.stage))
	}
	compareToOracle(t, "window from zero", &z, &oz)
	// A first sample past maxExactSample places no window.
	var big Histogram
	big.Add(maxExactSample + 1)
	if big.win != nil {
		t.Error("a sample past maxExactSample placed the window")
	}
}

// String makes a failing multiset comparison readable: value×count.
func (r run) String() string { return fmt.Sprintf("%v×%d", valueOf(r.key), r.n) }

// fuzzSamples decodes samples from 9-byte records, a kind byte and eight
// payload bytes, so the fuzzer reaches every shape the exact fold in
// AddRepeated must tell apart: whole numbers up to and just past
// maxExactSample, fractions, signed zeros, NaN and the infinities, any
// bit pattern, and values whose sum or square lands near maxExactSum.
func fuzzSamples(data []byte) []float64 {
	special := []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), -1, 0.5,
		maxExactSample + 0.5, maxExactSum, maxExactSum - 1}
	var vs []float64
	for ; len(data) >= 9; data = data[9:] {
		u := binary.LittleEndian.Uint64(data[1:9])
		var v float64
		switch data[0] % 8 {
		case 0:
			v = float64(u % 200) // a TDM connection's recurring latencies
		case 1:
			v = float64(u % (maxExactSample + 2))
		case 2:
			v = float64(maxExactSample - 4 + u%9)
		case 3:
			v = float64(u%1000000) / 1000 // picoseconds in ns, as off-grid latencies are
		case 4:
			v = special[u%uint64(len(special))]
		case 5:
			v = math.Float64frombits(u)
		case 6:
			v = float64(94906262 + u%8) // squares straddle maxExactSum
		case 7:
			v = float64(maxExactSum - 1 - u%4096)
		}
		vs = append(vs, v)
	}
	return vs
}

// FuzzAddRepeated holds AddRepeated, whose Summary takes the O(1) fold
// when it is exact, to the oracle's sequential Add loop on any prefix
// and any tail, repeated any number of times: the same count, sums,
// range, mean, deviation and percentiles, bit for bit.
func FuzzAddRepeated(f *testing.F) {
	rec := func(kind byte, u uint64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{kind}, u)
	}
	cat := func(recs ...[]byte) []byte { return slices.Concat(recs...) }
	f.Add(cat(rec(0, 48), rec(0, 52), rec(0, 48), rec(0, 60)), uint8(1), uint16(500))
	f.Add(cat(rec(0, 3), rec(2, 4), rec(2, 8)), uint8(1), uint16(1000))
	f.Add(cat(rec(7, 700), rec(0, 1), rec(0, 0)), uint8(1), uint16(1024))
	f.Add(cat(rec(6, 3), rec(0, 1), rec(0, 199)), uint8(1), uint16(64))
	f.Add(cat(rec(0, 10), rec(3, 3), rec(0, 12)), uint8(1), uint16(9))
	// Fractions whose sums are whole after every pass.
	f.Add(cat(rec(0, 7), rec(3, 500), rec(3, 500), rec(3, 500), rec(3, 500)), uint8(1), uint16(3))
	f.Add(cat(rec(0, 10), rec(4, 0), rec(4, 1), rec(4, 2)), uint8(0), uint16(3))
	f.Add(cat(rec(5, math.Float64bits(1e300)), rec(0, 7)), uint8(1), uint16(5))
	// The dense window: placed by a whole first sample, then samples at
	// its edges and just past them, a fraction inside it, -0, NaN and +0.
	f.Add(cat(rec(1, 1000), rec(1, 872), rec(1, 1127), rec(1, 871), rec(1, 1128), rec(4, 0),
		rec(0, 999), rec(4, 1), rec(3, 999500)), uint8(3), uint16(7))
	f.Add(cat(rec(0, 5), rec(4, 0), rec(0, 0), rec(0, 133), rec(0, 134), rec(4, 1)), uint8(2), uint16(11))
	f.Add(cat(rec(4, 0), rec(4, 1), rec(0, 0), rec(4, 0), rec(0, 0)), uint8(2), uint16(4))
	f.Fuzz(func(t *testing.T, data []byte, split uint8, times uint16) {
		vs := fuzzSamples(data)
		if len(vs) > 300 {
			vs = vs[:300]
		}
		cut := min(int(split), len(vs))
		prefix, tail := vs[:cut], vs[cut:]
		n := int64(times % 1025)
		var h Histogram
		var o oracle
		for _, v := range prefix {
			h.Add(v)
			o.Add(v)
		}
		h.AddRepeated(tail, n)
		o.AddRepeated(tail, n)
		if !sameFloat(h.sum, o.sum) || !sameFloat(h.sumSq, o.sumSq) {
			t.Fatalf("sums %v, %v (%#x, %#x); oracle %v, %v (%#x, %#x)", h.sum, h.sumSq,
				math.Float64bits(h.sum), math.Float64bits(h.sumSq),
				o.sum, o.sumSq, math.Float64bits(o.sum), math.Float64bits(o.sumSq))
		}
		compareToOracle(t, fmt.Sprintf("%d prefix samples, %d tail samples x %d", len(prefix), len(tail), n), &h, &o)
	})
}
