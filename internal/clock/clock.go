package clock

import (
	"fmt"
	"math"
)

// Time is an absolute simulation time in picoseconds.
type Time int64

// Duration is a time difference in picoseconds.
type Duration = Time

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond  Duration = 1000
	Microsecond Duration = 1000 * 1000
	Millisecond Duration = 1000 * 1000 * 1000
)

// Infinity is a time later than any edge a simulation will produce.
const Infinity Time = 1<<63 - 1

// FromNs converts ns nanoseconds to a simulated instant, reporting whether
// ns is one: finite, at least zero and under 2^63 picoseconds.
func FromNs(ns float64) (Time, bool) {
	ps := ns * float64(Nanosecond)
	// NaN fails ps >= 0; +Inf and all past Time's range fail ps < 2^63.
	if !(ps >= 0) || ps >= math.MaxInt64 {
		return 0, false
	}
	return Time(ps), true
}

// PeriodFromMHz returns the clock period, in picoseconds, of a clock with
// the given frequency in MHz. It panics if the frequency is not positive.
func PeriodFromMHz(mhz float64) Duration {
	if mhz <= 0 {
		panic(fmt.Sprintf("clock: non-positive frequency %v MHz", mhz))
	}
	return Duration(1e6/mhz + 0.5)
}

// MHzFromPeriod converts a period in picoseconds to a frequency in MHz.
func MHzFromPeriod(period Duration) float64 {
	return 1e6 / float64(period)
}

// A Clock is a periodic source of rising edges. Edge n occurs at
// Phase + n*Period for n >= 0. The zero value is not a valid clock; use New.
type Clock struct {
	Name   string
	Period Duration // clock period, > 0
	Phase  Duration // offset of edge 0 from time zero, in [0, Period)
}

// New returns a clock with the given name, period and phase. The phase is
// normalised into [0, Period). It panics if period <= 0.
func New(name string, period, phase Duration) *Clock {
	if period <= 0 {
		panic(fmt.Sprintf("clock: non-positive period %d ps", period))
	}
	phase %= period
	if phase < 0 {
		phase += period
	}
	return &Clock{Name: name, Period: period, Phase: phase}
}

// NewMHz returns a clock with a frequency given in MHz and a phase in
// picoseconds.
func NewMHz(name string, mhz float64, phase Duration) *Clock {
	return New(name, PeriodFromMHz(mhz), phase)
}

// EdgeAt returns the time of rising edge n.
func (c *Clock) EdgeAt(n int64) Time {
	return c.Phase + Time(n)*c.Period
}

// NextEdge returns the time of the first rising edge strictly after t.
func (c *Clock) NextEdge(t Time) Time {
	if t < c.Phase {
		return c.Phase
	}
	n := (t - c.Phase) / c.Period
	e := c.Phase + n*c.Period
	if e <= t {
		e += c.Period
	}
	return e
}

// EdgeIndex returns the index n of the edge occurring exactly at t, and
// whether t is an edge of this clock.
func (c *Clock) EdgeIndex(t Time) (int64, bool) {
	if t < c.Phase {
		return 0, false
	}
	d := t - c.Phase
	if d%c.Period != 0 {
		return 0, false
	}
	return int64(d / c.Period), true
}

// CyclesIn returns how many full periods of this clock fit in d.
func (c *Clock) CyclesIn(d Duration) int64 {
	return int64(d / c.Period)
}

// FrequencyMHz reports the clock frequency in MHz.
func (c *Clock) FrequencyMHz() float64 { return MHzFromPeriod(c.Period) }

func (c *Clock) String() string {
	return fmt.Sprintf("%s(%.1f MHz, phase %d ps)", c.Name, c.FrequencyMHz(), c.Phase)
}

// Mesochronous returns a copy of base with the given name and an additional
// phase offset. The offset may be any value; it is normalised into the
// period. Section V of the paper assumes |offset| <= Period/2 between
// neighbouring elements for correct bi-synchronous FIFO operation; that
// bound is asserted where it matters (the link pipeline stage), not here.
func Mesochronous(base *Clock, name string, offset Duration) *Clock {
	return New(name, base.Period, base.Phase+offset)
}

// Plesiochronous returns a clock whose period deviates from base by the
// given signed parts-per-million offset, with the given phase.
func Plesiochronous(base *Clock, name string, ppm float64, phase Duration) *Clock {
	p := float64(base.Period) * (1 + ppm/1e6)
	period := Duration(p + 0.5)
	if period <= 0 {
		period = 1
	}
	return New(name, period, phase)
}
