package audit

import (
	"fmt"
	"maps"
	"sort"

	"repro/internal/clock"
	"repro/internal/parallel"
	"repro/internal/phit"
	"repro/internal/trace"
)

// Timelines maps each audited connection to its per-word delivery
// instants (typically Deliveries.Timelines after a run).
type Timelines map[phit.ConnID][]clock.Time

// Deliveries is a trace.Sink that keeps the Eject instants of a fixed set
// of watched connections: the delivery timelines a composability diff
// compares. The bus is the only record of a delivery instant; replay
// re-emits recorded Ejects, so the timeline is exact in a replayed run.
type Deliveries struct {
	from clock.Time
	t    Timelines
}

// RecordDeliveries attaches a Deliveries sink for conns to bus. Only
// deliveries strictly after from count: from is the measurement window's
// start, so warm-up deliveries drop out exactly as the NIs' ResetStats
// drops them from the report.
func RecordDeliveries(bus *trace.Bus, from clock.Time, conns ...phit.ConnID) *Deliveries {
	d := &Deliveries{from: from, t: make(Timelines, len(conns))}
	for _, c := range conns {
		d.t[c] = nil
	}
	bus.Attach(d)
	return d
}

// Event implements trace.Sink.
func (d *Deliveries) Event(ev trace.Event) {
	if ev.Kind != trace.Eject || ev.Time <= d.from {
		return
	}
	if tl, ok := d.t[ev.Conn]; ok {
		d.t[ev.Conn] = append(tl, ev.Time)
	}
}

// Timelines returns every watched connection's delivery instants so far,
// in delivery order; a connection that delivered nothing maps to nil.
// Later deliveries do not reach the returned slices.
func (d *Deliveries) Timelines() Timelines { return maps.Clone(d.t) }

// IsolationResult is the outcome of one composability diff.
type IsolationResult struct {
	// Conns and Words count the compared connections and delivery
	// instants (of the baseline run).
	Conns int
	Words int
	// Identical is the composability verdict: every audited connection
	// delivered the same words at the same picoseconds in both runs.
	Identical bool
	// FirstDiff describes the earliest divergence when not identical.
	FirstDiff string
}

// Isolation runs the paired composability experiment: run(false) executes
// the scenario as given, run(true) executes it with the *interfering*
// connections' traffic perturbed, and the audited connections' delivery
// timelines are diffed for byte identity — the paper's composability
// claim is that the perturbation must be invisible. The two runs fan out
// over the parallel sweep runner; each call must build a private network
// and engine.
func Isolation(jobs int, run func(perturbed bool) (Timelines, error)) (IsolationResult, error) {
	outs, err := parallel.Map(parallel.Jobs(jobs), 2, func(i int) (Timelines, error) {
		return run(i == 1)
	})
	if err != nil {
		return IsolationResult{}, err
	}
	return Diff(outs[0], outs[1]), nil
}

// Diff compares two delivery timelines for byte identity.
func Diff(base, perturbed Timelines) IsolationResult {
	ids := make([]phit.ConnID, 0, len(base))
	for id := range base {
		ids = append(ids, id)
	}
	for id := range perturbed {
		if _, ok := base[id]; !ok {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	res := IsolationResult{Conns: len(ids), Identical: true}
	for _, id := range ids {
		b, p := base[id], perturbed[id]
		res.Words += len(b)
		if res.FirstDiff != "" {
			continue
		}
		if len(b) != len(p) {
			res.Identical = false
			res.FirstDiff = fmt.Sprintf("connection %d delivered %d words vs %d under perturbation", id, len(b), len(p))
			continue
		}
		for i := range b {
			if b[i] != p[i] {
				res.Identical = false
				res.FirstDiff = fmt.Sprintf("connection %d word %d arrived at %d ps vs %d ps under perturbation", id, i, b[i], p[i])
				break
			}
		}
	}
	return res
}
