package core

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/topology"
	"repro/internal/trace"
)

// maxHealAttempts bounds reroutes per lineage: a replacement that itself
// quarantines is rerouted again at most maxHealAttempts-1 times before the
// lineage is declared degraded.
const maxHealAttempts = 2

// A HealReport records how one quarantine was handled: an automatic
// reroute (close + re-admission over links clear of the failed path), or
// a graceful degradation when no admissible alternative exists.
type HealReport struct {
	// Victim is the quarantined connection that was closed; Origin is the
	// first connection of its lineage (equal to Victim unless the victim
	// was itself a replacement).
	Victim phit.ConnID `json:"victim"`
	Origin phit.ConnID `json:"origin"`
	// Replacement is the fresh id carrying the service after the reroute
	// (phit.None when degraded).
	Replacement phit.ConnID `json:"replacement"`

	QuarantinedAt clock.Time `json:"quarantined_at_ps"`
	HealedAt      clock.Time `json:"healed_at_ps"`
	// RecoveryNs is the service interruption: quarantine instant to the
	// instant the replacement was admitted (zero when degraded).
	RecoveryNs float64 `json:"recovery_ns"`

	Rerouted bool `json:"rerouted"`
	// Degraded: the connection could not be re-admitted (no admissible
	// alternative, or the lineage exhausted its reroute attempts); it was
	// closed and its service is gone — gracefully, without touching
	// anyone else's guarantees.
	Degraded bool `json:"degraded"`

	// Decision is the admission answer for the replacement request.
	Decision Decision `json:"decision"`
}

// A Healer turns hard faults into bounded service interruptions: it
// consumes the quarantine transitions the reliability layer records and,
// for each victim, closes the dead connection and re-admits its spec
// under a fresh id over paths that avoid every router-to-router link the
// victim rode. Quarantine fires inside the engine's event processing, so
// the Healer must run *between* engine runs — after Network.Run /
// RunTimed segments, or periodically from a driver loop.
type Healer struct {
	n  *Network
	tr *trace.Emitter

	attempts map[phit.ConnID]int         // reroutes already spent, by current id
	origin   map[phit.ConnID]phit.ConnID // current id -> first id of lineage
	reports  []HealReport
}

// NewHealer builds a healer for the network. bus may be nil; with a bus,
// every reroute emits a trace.Reroute event (on the origin connection id,
// Arg = recovery latency in ps) that the metrics sink folds into the
// connection's recovery histogram.
func NewHealer(n *Network, bus *trace.Bus) *Healer {
	h := &Healer{
		n:        n,
		attempts: make(map[phit.ConnID]int),
		origin:   make(map[phit.ConnID]phit.ConnID),
	}
	if bus != nil {
		h.tr = bus.Emitter("healer")
	}
	return h
}

// Heal drains every pending quarantine and handles each, looping until no
// new quarantine is recorded (closing one victim advances simulated time,
// which can quarantine another). It returns the reports for this batch.
func (h *Healer) Heal() ([]HealReport, error) {
	var out []HealReport
	for {
		evs := h.n.takeQuarantined()
		if len(evs) == 0 {
			break
		}
		for _, ev := range evs {
			r, err := h.healOne(ev)
			if err != nil {
				return out, err
			}
			out = append(out, r)
		}
	}
	h.reports = append(h.reports, out...)
	return out, nil
}

// Reports returns every heal handled over the healer's lifetime.
func (h *Healer) Reports() []HealReport {
	return append([]HealReport(nil), h.reports...)
}

func (h *Healer) healOne(ev QuarantineEvent) (HealReport, error) {
	victim := ev.Conn
	origin := victim
	if o, ok := h.origin[victim]; ok {
		origin = o
	}
	rep := HealReport{Victim: victim, Origin: origin, Replacement: phit.None, QuarantinedAt: ev.Time}

	sc, err := h.n.SpecOf(victim)
	if err != nil {
		// Already closed (e.g. by the scenario itself): nothing to heal.
		rep.Degraded = true
		rep.Decision = rejection(victim, err, err.Error())
		return rep, nil
	}
	// The avoid set is the victim's own path — but only the links that
	// have alternatives. The NI injection and ejection links are on every
	// candidate path of this endpoint pair; avoiding them would reject
	// every reroute even when the fault sits mid-mesh.
	links, err := h.n.ConnectionLinks(victim)
	if err != nil {
		return rep, err
	}
	avoid := routerLinks(h.n.Mesh, links)

	if err := h.n.CloseConnection(victim); err != nil {
		return rep, fmt.Errorf("core: healing connection %d: %w", victim, err)
	}
	spent := h.attempts[victim]
	if spent >= maxHealAttempts {
		rep.Degraded = true
		err := fmt.Errorf("lineage of connection %d exhausted %d reroute attempts", origin, maxHealAttempts)
		rep.Decision = rejection(victim, err, err.Error())
		return rep, nil
	}

	nc := sc
	nc.ID = h.n.FreshConnID()
	d, err := h.n.Admit(nc, avoid...)
	rep.Decision = d
	if err != nil {
		return rep, err
	}
	if !d.Admissible {
		rep.Degraded = true
		return rep, nil
	}
	rep.Rerouted = true
	rep.Replacement = nc.ID
	rep.HealedAt = h.n.Engine().Now()
	rep.RecoveryNs = float64(rep.HealedAt-ev.Time) / float64(clock.Nanosecond)
	h.attempts[nc.ID] = spent + 1
	h.origin[nc.ID] = origin
	if h.tr != nil {
		h.tr.Emit(trace.Event{
			Time: rep.HealedAt, Ref: ev.Time, Kind: trace.Reroute,
			Conn: origin, Arg: int64(rep.HealedAt - ev.Time), Slot: trace.NoSlot,
		})
	}
	return rep, nil
}

// routerLinks keeps only the router-to-router links of a set — the links
// an alternate route can actually steer around.
func routerLinks(m *topology.Mesh, ls []topology.LinkID) []topology.LinkID {
	var out []topology.LinkID
	for _, l := range ls {
		lk := m.Link(l)
		if m.Node(lk.From).Kind == topology.Router && m.Node(lk.To).Kind == topology.Router {
			out = append(out, l)
		}
	}
	return out
}
