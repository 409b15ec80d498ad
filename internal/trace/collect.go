package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/stats"
)

// Metrics is a streaming aggregation sink: it folds the event stream into
// per-connection latency histograms, per-component (link, router, NI,
// wrapper) slot-utilisation counters and buffer-occupancy high-water
// marks, without retaining the events themselves — so it is safe to leave
// attached for arbitrarily long runs. It is a Folder: a replayed epoch's
// copies cost it one pass over the epoch, not one per copy.
type Metrics struct {
	bus *Bus
	// Both ids are small dense integers (connections are numbered from 1,
	// component ids are interned in registration order), so the per-event
	// hot path indexes grow-on-demand slices instead of hashing map keys.
	conns   []*ConnMetrics // indexed by ConnID; nil = never seen
	comps   []CompMetrics  // indexed by CompID; no Events = never seen
	counts  [kindCount]int64
	firstPs clock.Time
	lastPs  clock.Time
	any     bool

	// Fold scratch: one epoch's latency samples per connection, in event
	// order, and the connections that have any.
	epochLat [][]float64 // indexed by ConnID
	latConns []phit.ConnID
}

// ConnMetrics aggregates one connection's lifecycle events.
type ConnMetrics struct {
	Injected  int64 // words accepted into the source NI FIFO
	Sent      int64 // words that left the source NI
	Delivered int64 // words ejected at the destination NI
	Blocked   int64 // owned slots lost to credit exhaustion
	Credits   int64 // credit words returned to this connection's sender
	// Latency is the inject-to-eject latency per delivered word, ns.
	Latency stats.Histogram

	// Reliability-layer aggregates (all zero without the shell).
	ReliabilityDrops int64 // flits/phits the receive side dropped, for any reason (CRCDrop events)
	Retransmits      int64 // flits re-sent by go-back-N rounds
	Acks             int64 // cumulative-ack window advances
	Quarantined      int64 // quarantine transitions (0 or 1 per run)
	Reroutes         int64 // self-healing re-admissions after quarantine
	// Recovery is the head-of-line stall per recovered loss, ns: the
	// span from the first drop to the in-order delivery that healed it.
	// Reroute events feed it too, with the quarantine-to-readmission
	// recovery latency.
	Recovery stats.Histogram
}

// CompMetrics aggregates one component's activity.
type CompMetrics struct {
	Events       int64 // events emitted by this component
	BusyCycles   int64 // clock cycles its output was occupied (see busyCycles)
	MaxOccupancy int64 // buffer-depth high-water mark, words
}

// NewMetrics builds a metrics sink and attaches it to the bus.
func NewMetrics(bus *Bus) *Metrics {
	m := &Metrics{bus: bus}
	bus.Attach(m)
	return m
}

// grow extends a metrics slice past its length so index i is addressable.
func grow[T any](s []T, i int) []T { return append(s, make([]T, i+1-len(s))...) }

// Deferred implements Deferrable: the aggregation is read only through
// the accessors below, which drain the bus first.
func (m *Metrics) Deferred() bool { return true }

// Event implements Sink.
func (m *Metrics) Event(ev Event) {
	m.span(ev.Time, ev.Time)
	cm := m.tally(ev, 1)
	if cm == nil {
		return
	}
	switch ev.Kind {
	case Eject:
		cm.Latency.Add(latencyNs(ev))
	case Recovered, Reroute:
		cm.Recovery.Add(float64(ev.Arg) / float64(clock.Nanosecond))
	}
}

// latencyNs is an Eject's inject-to-eject latency.
func latencyNs(ev Event) float64 { return float64(ev.Time-ev.Ref) / float64(clock.Nanosecond) }

// span widens the observed time span to cover [lo, hi].
func (m *Metrics) span(lo, hi clock.Time) {
	if !m.any {
		m.any = true
		m.firstPs, m.lastPs = lo, hi
		return
	}
	m.firstPs = min(m.firstPs, lo)
	m.lastPs = max(m.lastPs, hi)
}

// tally counts n copies of ev in everything but the histograms and the
// span, and returns its connection's aggregate (nil for no connection).
func (m *Metrics) tally(ev Event, n int64) *ConnMetrics {
	m.counts[ev.Kind] += n

	if int(ev.Comp) >= len(m.comps) {
		m.comps = grow(m.comps, int(ev.Comp))
	}
	cp := &m.comps[ev.Comp]
	cp.Events += n
	cp.BusyCycles += n * busyCycles[ev.Kind]
	if ev.Kind == Occupancy && ev.Arg > cp.MaxOccupancy {
		cp.MaxOccupancy = ev.Arg
	}

	if ev.Conn <= phit.None {
		return nil
	}
	if int(ev.Conn) >= len(m.conns) {
		m.conns = grow(m.conns, int(ev.Conn))
	}
	cm := m.conns[ev.Conn]
	if cm == nil {
		cm = &ConnMetrics{}
		m.conns[ev.Conn] = cm
	}
	switch ev.Kind {
	case Inject:
		cm.Injected += n
	case Send:
		cm.Sent += n
	case Eject:
		cm.Delivered += n
	case Blocked:
		cm.Blocked += n
	case Credit:
		cm.Credits += n * ev.Arg
	case CRCDrop:
		cm.ReliabilityDrops += n
	case Retransmit:
		cm.Retransmits += n
	case AckAdvance:
		cm.Acks += n
	case Quarantine:
		cm.Quarantined += n
	case Reroute:
		cm.Reroutes += n
	}
	return cm
}

// Fold implements Folder. Counters grow by count times the epoch's,
// maxima hold, the span reaches the first copy's earliest and the last
// copy's latest event, and each connection's latencies, the same in
// every copy, enter its histogram through AddRepeated in event order. An
// epoch holding an Eject with no injection instant, whose latency grows
// with the shift, or a Recovered or Reroute event, which only the
// reliability layer and the healer emit and replay never engages on, is
// delivered copy by copy instead.
func (m *Metrics) Fold(ep *Epoch, first, count int64) {
	if count <= 0 || len(ep.Events) == 0 {
		return
	}
	for _, ev := range ep.Events {
		if ev.Kind == Eject && ev.Ref == 0 || ev.Kind == Recovered || ev.Kind == Reroute {
			for e := first; e < first+count; e++ {
				for i := range ep.Events {
					m.Event(ep.At(i, e))
				}
			}
			return
		}
	}
	lo, hi := ep.Events[0].Time, ep.Events[0].Time
	for _, ev := range ep.Events {
		lo, hi = min(lo, ev.Time), max(hi, ev.Time)
		if m.tally(ev, count) == nil || ev.Kind != Eject {
			continue
		}
		for int(ev.Conn) >= len(m.epochLat) {
			m.epochLat = append(m.epochLat, nil)
		}
		if len(m.epochLat[ev.Conn]) == 0 {
			m.latConns = append(m.latConns, ev.Conn)
		}
		m.epochLat[ev.Conn] = append(m.epochLat[ev.Conn], latencyNs(ev))
	}
	for _, c := range m.latConns {
		m.conns[c].Latency.AddRepeated(m.epochLat[c], count)
		m.epochLat[c] = m.epochLat[c][:0]
	}
	m.latConns = m.latConns[:0]
	m.span(lo+clock.Time(first)*ep.Len, hi+clock.Time(first+count-1)*ep.Len)
}

// Conn returns the aggregate for one connection (nil if never seen). It
// is the sink's own: read it where the bus is drained, after Run or in a
// timer callback.
func (m *Metrics) Conn(c phit.ConnID) *ConnMetrics {
	m.bus.Drain()
	if c <= phit.None || int(c) >= len(m.conns) {
		return nil
	}
	return m.conns[c]
}

// Count returns how many events of the kind were observed.
func (m *Metrics) Count(k Kind) int64 {
	m.bus.Drain()
	return m.counts[k]
}

// Events returns the total observed event count.
func (m *Metrics) Events() int64 {
	m.bus.Drain()
	var n int64
	for _, c := range m.counts {
		n += c
	}
	return n
}

// A Report is the rendered form of a Metrics aggregation over a known
// observation window.
type Report struct {
	WindowPs int64        `json:"window_ps"`
	PeriodPs int64        `json:"period_ps"`
	Events   int64        `json:"events"`
	Kinds    []KindCount  `json:"kinds"`
	Conns    []ConnReport `json:"connections"`
	Comps    []CompReport `json:"components"`
}

// KindCount is one event kind's total.
type KindCount struct {
	Kind  string `json:"kind"`
	Count int64  `json:"count"`
}

// ConnReport is one connection's aggregate.
type ConnReport struct {
	Conn      int32   `json:"conn"`
	Injected  int64   `json:"injected"`
	Sent      int64   `json:"sent"`
	Delivered int64   `json:"delivered"`
	Blocked   int64   `json:"blocked"`
	Credits   int64   `json:"credits"`
	LatMinNs  float64 `json:"lat_min_ns"`
	LatMeanNs float64 `json:"lat_mean_ns"`
	LatP99Ns  float64 `json:"lat_p99_ns"`
	LatMaxNs  float64 `json:"lat_max_ns"`

	// Reliability-layer fields (zero without the shell).
	// ReliabilityDrops counts every receive-side drop, whatever its
	// reason; its key keeps the older name the artifacts carry.
	ReliabilityDrops int64   `json:"crc_drops"`
	Retransmits      int64   `json:"retransmits"`
	Acks             int64   `json:"acks"`
	Quarantined      int64   `json:"quarantined"`
	Reroutes         int64   `json:"reroutes"`
	Recovered        int64   `json:"recovered"`
	RecMinNs         float64 `json:"rec_min_ns"`
	RecMeanNs        float64 `json:"rec_mean_ns"`
	RecP99Ns         float64 `json:"rec_p99_ns"`
	RecMaxNs         float64 `json:"rec_max_ns"`
}

// CompReport is one component's aggregate.
type CompReport struct {
	Component    string  `json:"component"`
	Events       int64   `json:"events"`
	BusyCycles   int64   `json:"busy_cycles"`
	Utilisation  float64 `json:"utilisation"`
	MaxOccupancy int64   `json:"max_occupancy"`
}

// Report renders the aggregation. windowPs is the observed simulation span
// and periodPs the nominal clock period; together they bound the cycles a
// component's output could have been busy, giving utilisation. A zero
// windowPs falls back to the span between the first and last event.
func (m *Metrics) Report(windowPs, periodPs int64) *Report {
	m.bus.Drain()
	if windowPs <= 0 && m.any {
		windowPs = int64(m.lastPs - m.firstPs)
	}
	r := &Report{WindowPs: windowPs, PeriodPs: periodPs, Events: m.Events()}
	for k := 0; k < kindCount; k++ {
		if m.counts[k] > 0 {
			r.Kinds = append(r.Kinds, KindCount{Kind: Kind(k).String(), Count: m.counts[k]})
		}
	}
	for id, cm := range m.conns {
		if cm == nil {
			continue
		}
		cr := ConnReport{
			Conn: int32(id), Injected: cm.Injected, Sent: cm.Sent,
			Delivered: cm.Delivered, Blocked: cm.Blocked, Credits: cm.Credits,
		}
		// stats.Finite throughout: a degenerate window (zero delivered
		// flits, empty span) yields NaN/Inf aggregates, and one leaked NaN
		// makes encoding/json reject the whole report.
		if cm.Latency.N() > 0 {
			cr.LatMinNs = stats.Finite(cm.Latency.Min())
			cr.LatMeanNs = stats.Finite(cm.Latency.Mean())
			cr.LatP99Ns = stats.Finite(cm.Latency.Percentile(99))
			cr.LatMaxNs = stats.Finite(cm.Latency.Max())
		}
		cr.ReliabilityDrops = cm.ReliabilityDrops
		cr.Retransmits = cm.Retransmits
		cr.Acks = cm.Acks
		cr.Quarantined = cm.Quarantined
		cr.Reroutes = cm.Reroutes
		cr.Recovered = cm.Recovery.N()
		if cm.Recovery.N() > 0 {
			cr.RecMinNs = stats.Finite(cm.Recovery.Min())
			cr.RecMeanNs = stats.Finite(cm.Recovery.Mean())
			cr.RecP99Ns = stats.Finite(cm.Recovery.Percentile(99))
			cr.RecMaxNs = stats.Finite(cm.Recovery.Max())
		}
		r.Conns = append(r.Conns, cr)
	}
	totalCycles := float64(0)
	if periodPs > 0 {
		totalCycles = float64(windowPs) / float64(periodPs)
	}
	for id, cp := range m.comps {
		if cp.Events == 0 {
			continue
		}
		util := 0.0
		if totalCycles > 0 {
			util = stats.Finite(float64(cp.BusyCycles) / totalCycles)
			if util > 1 {
				util = 1 // edge flits straddling the window boundary
			}
		}
		r.Comps = append(r.Comps, CompReport{
			Component: m.bus.ComponentName(CompID(id)), Events: cp.Events,
			BusyCycles: cp.BusyCycles, Utilisation: util, MaxOccupancy: cp.MaxOccupancy,
		})
	}
	return r
}

// WriteJSON renders the report as indented JSON (stable field order).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteCSV renders the report as two CSV sections: connections, then
// components. Latency and recovery-latency columns are empty (not 0) for
// connections that measured nothing, so an absent measurement cannot be
// mistaken for a real zero-nanosecond latency.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := &countWriter{w: w}
	cw.printf("section,conn,injected,sent,delivered,blocked,credits," +
		"lat_min_ns,lat_mean_ns,lat_p99_ns,lat_max_ns," +
		"crc_drops,retransmits,acks,quarantined,reroutes,recovered," +
		"rec_min_ns,rec_mean_ns,rec_p99_ns,rec_max_ns\n")
	for _, c := range r.Conns {
		lat := ",,," // four empty latency cells: no delivery, no measurement
		if c.Delivered > 0 {
			lat = fmt.Sprintf("%s,%s,%s,%s", csvF(c.LatMinNs), csvF(c.LatMeanNs), csvF(c.LatP99Ns), csvF(c.LatMaxNs))
		}
		rec := ",,," // likewise for recovery stalls: no recovery, no measurement
		if c.Recovered > 0 {
			rec = fmt.Sprintf("%s,%s,%s,%s", csvF(c.RecMinNs), csvF(c.RecMeanNs), csvF(c.RecP99Ns), csvF(c.RecMaxNs))
		}
		cw.printf("conn,%d,%d,%d,%d,%d,%d,%s,%d,%d,%d,%d,%d,%d,%s\n",
			c.Conn, c.Injected, c.Sent, c.Delivered, c.Blocked, c.Credits, lat,
			c.ReliabilityDrops, c.Retransmits, c.Acks, c.Quarantined, c.Reroutes, c.Recovered, rec)
	}
	cw.printf("section,component,events,busy_cycles,utilisation,max_occupancy\n")
	for _, c := range r.Comps {
		cw.printf("comp,%s,%d,%d,%s,%d\n",
			csvCell(c.Component), c.Events, c.BusyCycles, csvF(c.Utilisation), c.MaxOccupancy)
	}
	return cw.err
}

// csvCell escapes a free-form string for one CSV cell (RFC 4180).
// Component names come straight from user specs, so a name containing a
// comma or quote must not shift every column after it.
func csvCell(s string) string {
	if !strings.ContainsAny(s, ",\"\n\r") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// csvF formats a float deterministically for CSV cells.
func csvF(v float64) string {
	if math.IsNaN(v) {
		return ""
	}
	return fmt.Sprintf("%.3f", v)
}

// countWriter is a sticky-error Fprintf target for the CSV renderer.
type countWriter struct {
	w   io.Writer
	err error
}

func (c *countWriter) printf(format string, args ...any) {
	if c.err == nil {
		_, c.err = fmt.Fprintf(c.w, format, args...)
	}
}
