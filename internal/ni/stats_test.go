package ni

import (
	"reflect"
	"testing"

	"repro/internal/clock"
	"repro/internal/replay"
	"repro/internal/stats"
)

// epochPs is the hyperperiod the ConnStats tests mark at.
const epochPs = clock.Time(3000)

// deliver records one word per arrival instant, each injected lat ps
// earlier.
func deliver(c *ConnStats, lat clock.Time, at ...clock.Time) {
	for _, t := range at {
		c.Record(t, t-lat)
	}
}

// TestConnStatsCleanRule: an epoch is shift-clean when a Mark opened it,
// no Reset came after that Mark, and the connection's first-ever delivery
// did not fall in it. Each case marks at 0, E and 2E with deliveries
// before E and during the judged epoch (E, 2E], and may Reset just before
// the Mark at E, as a warm-up's end does.
//
// Where the last delivery before the epoch stood does not matter: replay
// engages only on byte-equal boundary fingerprints, after which every
// epoch repeats the judged one, so its last delivery shifts by whole
// epochs whatever phase the one before it had.
func TestConnStatsCleanRule(t *testing.T) {
	const E = epochPs
	for _, tc := range []struct {
		name           string
		before, during []clock.Time
		reset          bool
		clean          bool
	}{
		{"no delivery", nil, nil, false, true},
		{"first-ever delivery in the epoch", nil, []clock.Time{E + 500}, false, false},
		{"first-ever delivery in the epoch, after a Reset", nil, []clock.Time{E + 500}, true, false},
		{"no delivery in the epoch", []clock.Time{200, 500}, nil, false, true},
		{"last delivery moved by the epoch", []clock.Time{200, 500}, []clock.Time{E + 200, E + 500}, false, true},
		{"last delivery moved by less", []clock.Time{200, 500}, []clock.Time{E + 499}, false, true},
		{"last delivery moved by more", []clock.Time{200, 500}, []clock.Time{E + 501}, false, true},
		{"first delivery after a Reset, with earlier ones", []clock.Time{200, 500}, []clock.Time{E + 500}, true, true},
	} {
		var c ConnStats
		c.Mark()
		deliver(&c, 100, tc.before...)
		if tc.reset {
			c.Reset()
		}
		c.Mark()
		deliver(&c, 100, tc.during...)
		if got := c.Mark(); got != tc.clean {
			t.Errorf("%s: Mark = %v, want %v", tc.name, got, tc.clean)
		}
	}
	var c ConnStats
	if c.Mark() {
		t.Error("a Mark with no snapshot before it reported a clean epoch")
	}
}

// TestConnStatsReset: Reset clears the statistics and ends the snapshot
// and the epoch log, so nothing recorded before it, and nothing recorded
// between it and the next Mark, is replayed by a later Shift.
func TestConnStatsReset(t *testing.T) {
	var c ConnStats
	c.Mark()
	deliver(&c, 100, 200, 500)
	c.Reset()
	if c.Delivered != 0 || c.Latency.N() != 0 || c.FirstAt != 0 || c.LastAt != 0 {
		t.Fatalf("after Reset: delivered %d, %d samples, span %d..%d", c.Delivered, c.Latency.N(), c.FirstAt, c.LastAt)
	}
	deliver(&c, 100, 800)
	if c.Mark() {
		t.Error("the first Mark after Reset reported a clean epoch")
	}
	c.Shift(&replay.Shift{Epochs: 4, DT: 4 * clock.Duration(epochPs)})
	if got := c.Latency.N(); got != 1 {
		t.Errorf("latency holds %d samples after Reset, one delivery and a shift, want 1", got)
	}
}

// TestConnStatsZeroEpochShift: a zero-epoch Shift moves nothing and ends
// the logging, as a program that goes inert uses it.
func TestConnStatsZeroEpochShift(t *testing.T) {
	var c ConnStats
	c.Mark()
	deliver(&c, 100, 200, 500, 900)
	before := c
	c.Shift(&replay.Shift{})
	if c.Delivered != before.Delivered || c.Latency.N() != before.Latency.N() ||
		c.FirstAt != before.FirstAt || c.LastAt != before.LastAt {
		t.Fatalf("a zero-epoch shift moved the statistics: %+v, was %+v", c, before)
	}
	deliver(&c, 100, 1200, 1500, 1800, 2100)
	if c.Mark() {
		t.Error("the Mark after a shift reported a clean epoch")
	}
	c.Shift(&replay.Shift{Epochs: 1, DT: clock.Duration(epochPs)})
	if got := c.Latency.N(); got != 7+3 {
		t.Errorf("%d samples after one more epoch, want %d: only the three logged before the zero-epoch shift replay",
			got, 7+3)
	}
}

// TestConnStatsShiftRepeatsTheEpoch: Shift by k gives the histogram that k
// more plain Add passes over the closed epoch's samples give, and moves
// the count and the last arrival with it.
func TestConnStatsShiftRepeatsTheEpoch(t *testing.T) {
	const k = 5
	lats := []clock.Time{120, 80, 120, 333, 95}
	var c ConnStats
	var want stats.Histogram
	// The same deliveries in two epochs: the first holds the first
	// delivery, the second is clean.
	c.Mark()
	for epoch := clock.Time(0); epoch < 2; epoch++ {
		for i, lat := range lats {
			at := epoch*epochPs + 10 + clock.Time(i)*400
			c.Record(at, at-lat)
			want.Add(float64(lat) / float64(clock.Nanosecond))
		}
		if got := c.Mark(); got != (epoch == 1) {
			t.Fatalf("epoch %d: Mark = %v", epoch, got)
		}
	}
	for pass := 0; pass < k; pass++ {
		for _, lat := range lats {
			want.Add(float64(lat) / float64(clock.Nanosecond))
		}
	}
	last := c.LastAt
	c.Shift(&replay.Shift{Epochs: k, DT: k * clock.Duration(epochPs)})
	c.Latency.Percentile(50) // both histograms flushed before comparing
	want.Percentile(50)
	if !reflect.DeepEqual(c.Latency, want) {
		t.Errorf("histogram after Shift by %d:\n%+v\nwant %d plain passes:\n%+v", k, c.Latency, k, want)
	}
	if n := int64((2 + k) * len(lats)); c.Delivered != n {
		t.Errorf("delivered %d, want %d", c.Delivered, n)
	}
	if c.FirstAt != 10 || c.LastAt != last+k*epochPs {
		t.Errorf("span %d..%d, want 10..%d", c.FirstAt, c.LastAt, last+k*epochPs)
	}
}
