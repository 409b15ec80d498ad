package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/phit"
	"repro/internal/route"
	"repro/internal/slots"
	"repro/internal/spec"
	"repro/internal/topology"
)

// Run-time admission control: the question "can connection c be opened
// now?" answered by one routing and placement pass over only the free
// slots, with the placement's analytical bounds checked against the
// request before anything is committed. A request either receives the full
// guaranteed service it asked for or is rejected with a typed reason; it
// is never admitted in a degraded form, and running connections are never
// disturbed by the attempt, because the slot search claims only free
// slots.

// Typed admission-rejection causes. A rejected Decision's Err wraps exactly
// one of these (or none, for an internal failure), so callers classify a
// rejection without parsing messages.
var (
	// ErrModeUnsupported: the network mode cannot be reconfigured at run
	// time (asynchronous wrappers index slots by token count).
	ErrModeUnsupported = errors.New("mode does not support run-time reconfiguration")
	// ErrDuplicate: the connection id is already open, as a data
	// connection or as one's credit channel, or was and is retired.
	ErrDuplicate = errors.New("connection already open")
	// ErrUnknownEndpoint: an endpoint IP is not in the use case.
	ErrUnknownEndpoint = errors.New("unknown endpoint")
	// ErrSharedNI: both endpoints sit on one NI (local traffic bypasses
	// the NoC).
	ErrSharedNI = errors.New("endpoints share an NI")
	// ErrNoRoute: no candidate route exists (or none fits the header's
	// path field, or every one crosses an avoided link).
	ErrNoRoute = errors.New("no usable route")
	// ErrInfeasible: the requested bandwidth or latency cannot be met —
	// on this network even with an empty slot table (rate above link
	// capacity, budget below the fixed path delay), or by the placement
	// the free slots allow.
	ErrInfeasible = errors.New("requirement infeasible")
	// ErrNoSlots: routing and sizing succeeded but the live table has no
	// free-slot placement (the underlying *slots.PlacementError is in the
	// chain).
	ErrNoSlots = errors.New("no free slot placement")
	// ErrQueueExhausted: an involved NI has no queue ids left.
	ErrQueueExhausted = errors.New("NI queue ids exhausted")
)

// reasons names each typed cause in a Decision; a rejection that wraps
// none of them is "internal" (a bug, not a resource shortage).
var reasons = []struct {
	cause error
	name  string
}{
	{ErrNoRoute, "no-path"},
	{ErrNoSlots, "no-slots"},
	{ErrInfeasible, "bound-infeasible"},
	{ErrDuplicate, "duplicate-id"},
	{ErrUnknownEndpoint, "unknown-endpoint"},
	{ErrSharedNI, "shared-ni"},
	{ErrModeUnsupported, "mode-unsupported"},
	{ErrQueueExhausted, "queue-exhausted"},
}

// A Decision is the machine-readable outcome of one admission question.
type Decision struct {
	Conn       phit.ConnID `json:"conn"`
	Admissible bool        `json:"admissible"`
	Reason     string      `json:"reason"`
	Detail     string      `json:"detail,omitempty"`

	// Guarantees of the (would-be) allocation, set when admissible.
	GuaranteeMBps  float64 `json:"guarantee_mbps,omitempty"`
	LatencyBoundNs float64 `json:"latency_bound_ns,omitempty"`
	DataSlots      int     `json:"data_slots,omitempty"`
	RevSlots       int     `json:"rev_slots,omitempty"`
	PathHops       int     `json:"path_hops,omitempty"`

	cause error
}

// Err returns why the request was rejected, for errors.Is against the
// Err* causes; it is nil when the request is admissible.
func (d Decision) Err() error { return d.cause }

// rejection is the Decision for a request refused for cause, explained by
// detail.
func rejection(id phit.ConnID, cause error, detail string) Decision {
	reason := "internal"
	for _, r := range reasons {
		if errors.Is(cause, r.cause) {
			reason = r.name
			break
		}
	}
	return Decision{Conn: id, Reason: reason, Detail: detail, cause: cause}
}

// admit is the one admission decision. It routes c clear of every link in
// avoid, sizes it, places both its directions into the free slots of
// alloc, and proves the placement carries the bandwidth and latency c
// asked for. Admissible, c and its credit channel stay placed in alloc and
// info describes them; rejected, alloc is as it was and info is nil.
func (n *Network) admit(c spec.Connection, avoid []topology.LinkID, alloc *slots.Allocation) (Decision, *connInfo) {
	reject := func(err error) (Decision, *connInfo) { return rejection(c.ID, err, err.Error()), nil }
	if n.Cfg.Mode == Asynchronous {
		return reject(fmt.Errorf("core: connection %d: %w (slot counters are token-indexed)", c.ID, ErrModeUnsupported))
	}
	// Credit channels are connections too: their ids live in the allocation
	// and the NIs beside the data connections'.
	if alloc.ByConn[c.ID] != nil {
		return reject(fmt.Errorf("core: %w: connection %d", ErrDuplicate, c.ID))
	}
	if n.retired[c.ID] {
		return reject(fmt.Errorf("core: %w: connection id %d was closed and its queue RAM is still registered; re-admission needs a fresh id (FreshConnID)", ErrDuplicate, c.ID))
	}
	if !(c.BandwidthMBps > 0 && c.MaxLatencyNs > 0) || math.IsInf(c.BandwidthMBps, 1) || math.IsInf(c.MaxLatencyNs, 1) {
		return reject(fmt.Errorf("core: connection %d: %w: rate %g MB/s and budget %g ns must be finite and positive",
			c.ID, ErrInfeasible, c.BandwidthMBps, c.MaxLatencyNs))
	}
	rc, err := routeOne(n.Mesh, n.Spec, n.Cfg, c, avoid, new(route.Arena))
	if err != nil {
		return reject(err)
	}
	// New id for the reverse channel: above everything *ever* used, not
	// just everything live — a closed connection's queue ids stay
	// registered in the NI, so id reuse would collide there.
	rev := max(n.idHigh, c.ID) + 1
	reqs, err := requestsFor(n.Cfg, c, rc, rev, n.Cfg.TableSize)
	if err != nil {
		return reject(fmt.Errorf("%w: %v", ErrInfeasible, err))
	}
	// Queue ids are consumed only by attach, but a request that could
	// never be attached must not be admissible.
	if _, _, err := n.queueIDs(rc.srcNI, rc.dstNI); err != nil {
		return reject(fmt.Errorf("core: connection %d: %w", c.ID, err))
	}
	// release takes back whatever the placement claimed (both ids were
	// free), so a rejection at any later step leaves alloc as it was.
	release := func() {
		for _, r := range reqs {
			if alloc.ByConn[r.Conn] != nil {
				alloc.Release(r.Conn)
			}
		}
	}
	if err := slots.AllocateInto(alloc, reqs[:]); err != nil {
		release() // the data channel may have landed before its credit channel failed
		return rejection(c.ID, fmt.Errorf("core: admission of connection %d failed: %w: %w", c.ID, ErrNoSlots, err), err.Error()), nil
	}
	info := deriveInfo(n.Cfg, c, rc, rev, alloc)
	// The sizing already aimed for these bounds; checking the realised
	// placement is the admission *proof* — a request is admitted only
	// with the full service it asked for.
	proof := ""
	switch {
	case info.guaranteeMBps < c.BandwidthMBps*(1-1e-9):
		proof = fmt.Sprintf("placement guarantees %.1f MB/s of the %.1f MB/s requested", info.guaranteeMBps, c.BandwidthMBps)
	case info.boundNs > c.MaxLatencyNs*(1+1e-9):
		proof = fmt.Sprintf("placement bounds latency at %.1f ns, budget is %.1f ns", info.boundNs, c.MaxLatencyNs)
	}
	if proof != "" {
		release()
		return rejection(c.ID, fmt.Errorf("core: connection %d: %w: %s", c.ID, ErrInfeasible, proof), proof), nil
	}
	return Decision{
		Conn: c.ID, Admissible: true, Reason: "admitted",
		GuaranteeMBps: info.guaranteeMBps, LatencyBoundNs: info.boundNs,
		DataSlots: len(info.slotSet), RevSlots: len(info.revSlots), PathHops: info.path.Hops(),
	}, info
}

// Probe answers "could connection c be opened now, on paths clear of
// every link in avoid?" without changing anything: the decision runs on a
// clone of the live allocation, and the network is untouched whatever the
// answer.
func (n *Network) Probe(c spec.Connection, avoid ...topology.LinkID) Decision {
	d, _ := n.admit(c, avoid, n.Alloc.Clone())
	return d
}

// Admit makes the same decision as Probe on the live allocation and, when
// it is admissible, opens the connection: its queue ids, headers and
// injection-table entries are programmed and its traffic generator
// started. No slot of the new connection (data or credit direction) rides
// a link in avoid — the self-healing reroute steers a replacement clear of
// its quarantined path this way. A rejection is not an error: the typed
// decision is the answer, and it leaves the network untouched. The error
// return is reserved for an admissible connection that failed to attach
// (a bug).
func (n *Network) Admit(c spec.Connection, avoid ...topology.LinkID) (Decision, error) {
	// Admission reprograms the allocation (which the ownership probes
	// read), tables and generators outside the engine's Run loop: land any
	// fast-forwarded replay state first.
	n.eng.Sync()
	d, info := n.admit(c, avoid, n.Alloc)
	if info == nil {
		return d, nil
	}
	if err := n.attach(info); err != nil {
		n.Alloc.ReleaseAll(c.ID, info.rev)
		return rejection(c.ID, err, err.Error()), fmt.Errorf("core: admitted connection %d failed to attach: %w", c.ID, err)
	}
	return d, nil
}
