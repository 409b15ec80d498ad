package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between order statistics; 0 for an empty slice. xs is not
// modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), which
// is what the acceptance check of the benchmark uses.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		m := median(xs)
		return m, m
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		// quantile i of 4, exclusive: position i*(n+1)/4 in 1-based ranks.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // after clamping, as Python does: it extrapolates
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// nsPer is host nanoseconds per unit of work done *during* d; 0 when no work
// was done. Callers pass deltas — edges after minus edges before the timed
// interval — never a cumulative counter. The root bench_test.go gets its edge
// rates wrong twice: it divides one run's edges by b.N instead of multiplying,
// and it feeds cumulative Engine.Edges(), priming included, into a rate over
// the timed part only.
func nsPer(d time.Duration, units int64) float64 {
	if units <= 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(units)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
