package fault

import (
	"fmt"
	"sort"

	"repro/internal/clock"
)

// Kind classifies a violation of the operating envelope.
type Kind int

const (
	// SkewBound: writer/reader skew beyond half a clock period
	// (paper Section V's mesochronous assumption).
	SkewBound Kind = iota
	// AlignBound: FIFO forwarding delay plus adverse skew beyond two
	// cycles, breaking the uniform one-slot TDM shift per link stage.
	AlignBound
	// FIFOOverflow: a bi-synchronous FIFO exceeded its 4-word bound.
	FIFOOverflow
	// FIFOUnderflow: a link FSM found the FIFO empty mid-flit (a used
	// slot did not carry a whole flit).
	FIFOUnderflow
	// LinkLatency: a link stage held a word longer than the one-flit-cycle
	// forwarding latency of paper Section V.
	LinkLatency
	// SlotContention: two flits met on one link in the same slot
	// (Section III's contention-free-routing invariant).
	SlotContention
	// SlotOwnership: a link carried a connection in a slot the allocation
	// reserved for another (TDM schedule violated).
	SlotOwnership
	// ProtocolError: a phit of the wrong kind at the wrong position
	// (non-header opening a packet, header inside a packet...).
	ProtocolError
	// UnknownQueue: a header addressed a queue the NI does not have.
	UnknownQueue
	// CreditError: end-to-end credit accounting violated (credits above
	// capacity, credits with no target connection).
	CreditError
	// RouteError: a phit routed to a non-existent or unconnected port.
	RouteError
	// PacketState: an NI sender's packetisation self-consistency broke
	// (packet left open into a foreign or unowned slot).
	PacketState
	// Liveness: an asynchronous wrapper stopped firing (empty-token
	// liveness of paper Section VI lost).
	Liveness
	// LinkQuarantined: a connection exhausted its reliability-layer retry
	// budget and stopped transmitting — its path is treated as failed
	// while every other connection keeps its guarantees.
	LinkQuarantined
	// LatencyBound: a delivered word exceeded its connection's
	// analytical worst-case latency (paper Section VII) — raised by the
	// conformance auditor, never by the fabric itself.
	LatencyBound
	// DeliveryOrder: a connection delivered words out of sequence — the
	// in-order property every TDM connection carries by construction.
	DeliveryOrder
	// InjectionRate: an IP offered sustained load above its allocated
	// guarantee. Not a fabric fault — the GS contract only binds the
	// bounds while the source stays within its allocation — but the
	// auditor flags it so an out-of-contract run is never mistaken for
	// a conforming one.
	InjectionRate
	// IsolationBreach: a connection's delivery timeline changed when
	// *other* connections' traffic was perturbed — the composability
	// claim (paper Section III) broken.
	IsolationBreach
	// ReconfigDisturbance: a surviving connection's delivery timeline
	// changed across a run-time reconfiguration event (an open or close of
	// *other* connections) — the "undisrupted quality-of-service during
	// reconfiguration" capability of reference [16] broken.
	ReconfigDisturbance
	// ReconfigResidue: a closed connection left state behind in the
	// reconfiguration window — slots still owned in the allocation or
	// still programmed in a live NI injection table after CloseConnection
	// returned.
	ReconfigResidue
)

var kindNames = map[Kind]string{
	SkewBound:           "skew-bound",
	AlignBound:          "align-bound",
	FIFOOverflow:        "fifo-overflow",
	FIFOUnderflow:       "fifo-underflow",
	LinkLatency:         "link-latency",
	SlotContention:      "slot-contention",
	SlotOwnership:       "slot-ownership",
	ProtocolError:       "protocol",
	UnknownQueue:        "unknown-queue",
	CreditError:         "credit",
	RouteError:          "route",
	PacketState:         "packet-state",
	Liveness:            "liveness",
	LinkQuarantined:     "link-quarantined",
	LatencyBound:        "latency-bound",
	DeliveryOrder:       "delivery-order",
	InjectionRate:       "injection-rate",
	IsolationBreach:     "isolation",
	ReconfigDisturbance: "reconfig-disturbance",
	ReconfigResidue:     "reconfig-residue",
}

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// NoSlot marks a violation with no meaningful TDM slot.
const NoSlot = -1

// A Violation is one detected breach of the operating envelope.
type Violation struct {
	Kind      Kind
	Component string     // diagnostic name of the detecting component
	Time      clock.Time // simulation instant of detection, in ps
	Slot      int        // TDM slot, or NoSlot
	Detail    string     // human-readable specifics
}

func (v Violation) String() string {
	if v.Slot == NoSlot {
		return fmt.Sprintf("%s: [%s] %s at %d ps", v.Component, v.Kind, v.Detail, v.Time)
	}
	return fmt.Sprintf("%s: [%s] %s in slot %d at %d ps", v.Component, v.Kind, v.Detail, v.Slot, v.Time)
}

// A Reporter consumes violations. Components hold a Reporter; nil selects
// strict (fail-fast) mode.
type Reporter interface {
	Report(v Violation)
}

// Report delivers v to r, or panics with the violation's message when r is
// nil — preserving the historical fail-fast behaviour of the envelope
// checks. Call sites that report a violation must also degrade gracefully
// (drop, clamp, resynchronise) so that collecting mode can continue.
func Report(r Reporter, v Violation) {
	if r == nil {
		r = FailFast{}
	}
	r.Report(v)
}

// FailFast is the reporter of a strict watched network: it panics with the
// violation's message, as Report does for a nil reporter. Building with it
// instead of nil still gives the network the ownership probes, word links
// and fault targets of a watched one (core.Config.FaultReporter).
type FailFast struct{}

// Report implements Reporter.
func (FailFast) Report(v Violation) { panic(v.String()) }

// DefaultKeep bounds how many violations a Collector stores verbatim; the
// totals keep counting past it, so a pathological campaign cannot exhaust
// memory.
const DefaultKeep = 10000

// A Collector is the engine-level violation sink of a campaign. It is
// written from one goroutine at a time — the engine's, or the trace bus's
// worker for an auditor that reports to it, which the engine drains before
// every timer callback and before Run returns — so it needs no locking.
type Collector struct {
	violations []Violation
	byKind     map[Kind]int64
	total      int64
	keep       int
}

// NewCollector returns an empty collector storing up to DefaultKeep
// violations.
func NewCollector() *Collector {
	return &Collector{byKind: make(map[Kind]int64), keep: DefaultKeep}
}

// SetKeep bounds the number of violations stored verbatim (counters are
// unaffected).
func (c *Collector) SetKeep(n int) { c.keep = n }

// Report implements Reporter.
func (c *Collector) Report(v Violation) {
	c.total++
	c.byKind[v.Kind]++
	if len(c.violations) < c.keep {
		c.violations = append(c.violations, v)
	}
}

// Total returns the number of violations reported.
func (c *Collector) Total() int64 { return c.total }

// Violations returns the stored violations in detection order.
func (c *Collector) Violations() []Violation {
	return append([]Violation(nil), c.violations...)
}

// CountByKind returns the per-kind totals.
func (c *Collector) CountByKind() map[Kind]int64 {
	out := make(map[Kind]int64, len(c.byKind))
	for k, n := range c.byKind {
		out[k] = n
	}
	return out
}

// Kinds returns the kinds seen, sorted, for deterministic reporting.
func (c *Collector) Kinds() []Kind {
	out := make([]Kind, 0, len(c.byKind))
	for k := range c.byKind {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FirstAt returns the first stored violation detected at or after t.
func (c *Collector) FirstAt(t clock.Time) (Violation, bool) {
	for _, v := range c.violations {
		if v.Time >= t {
			return v, true
		}
	}
	return Violation{}, false
}
