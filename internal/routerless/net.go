package routerless

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ni"
	"repro/internal/phit"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Name implements sim.Component.
func (r *ring) Name() string { return "rl." + r.name }

// Clock implements sim.Component.
func (r *ring) Clock() *clock.Clock { return r.net.base }

// Sample implements sim.Component (rings exchange no wires).
func (r *ring) Sample(now clock.Time) {}

// Update implements sim.Component: on every flit-cycle boundary the
// wheel rotates one stop, arriving flits eject, and owning stops inject
// into their freshly arrived slots.
func (r *ring) Update(now clock.Time) {
	cycle := int64(now / r.net.base.Period)
	if cycle%int64(phit.FlitWords) != 0 {
		return
	}
	// Rotate: the entry at stop p moves to stop p+1 (slot ids ride along).
	last := r.wheel[r.S-1]
	copy(r.wheel[1:], r.wheel[:r.S-1])
	r.wheel[0] = last

	for p := 0; p < r.S; p++ {
		e := &r.wheel[p]
		// Ejection first: a slot frees the instant its flit arrives.
		if f := e.flit; f != nil && f.dstPos == p {
			ci := r.conns[f.conn]
			st := r.stops[p]
			for _, w := range f.words {
				ci.delivered++
				if st.tr != nil {
					st.tr.Emit(trace.Event{Time: now, Ref: w.injected, Kind: trace.Eject,
						Conn: f.conn, Seq: w.seq, Slot: trace.NoSlot})
				}
				ci.latNs.Add(float64(now-w.injected) / float64(clock.Nanosecond))
				ci.lastNs = float64(now) / float64(clock.Nanosecond)
				if ci.delivered == 1 {
					ci.firstNs = ci.lastNs
				}
			}
			e.flit = nil
		}
		// Injection: only the slot's owner, only at its source stop, and
		// only into an empty slot. A non-empty owned slot here would mean
		// a flit survived a full revolution — a protocol violation.
		owner := r.alloc[e.sid]
		if owner == phit.None {
			continue
		}
		ci := r.conns[owner]
		if ci.srcPos != p || len(ci.q) == 0 {
			continue
		}
		if e.flit != nil {
			panic(fmt.Sprintf("routerless %s: slot %d returned occupied to its owner (conn %d)", r.Name(), e.sid, owner))
		}
		k := len(ci.q)
		if k > PayloadWords {
			k = PayloadWords
		}
		words := make([]pending, k)
		copy(words, ci.q[:k])
		ci.q = ci.q[:copy(ci.q, ci.q[k:])]
		st := r.stops[p]
		if st.tr != nil {
			st.tr.Emit(trace.Event{Time: now, Kind: trace.SlotStart, Conn: owner,
				Slot: int32(e.sid), Arg: int64(k)})
			for _, w := range words {
				st.tr.Emit(trace.Event{Time: now, Ref: w.injected, Kind: trace.Send,
					Conn: owner, Seq: w.seq, Slot: int32(e.sid)})
			}
		}
		e.flit = &inFlight{conn: owner, dstPos: ci.dstPos, words: words}
	}
}

// Offer implements traffic.Port: the generator's word enters the
// connection's source queue (blocking-write semantics on a full queue).
func (r *ring) Offer(now clock.Time, conn phit.ConnID, meta phit.Meta) bool {
	ci := r.conns[conn]
	if ci == nil {
		panic(fmt.Sprintf("routerless %s: unknown connection %d", r.Name(), conn))
	}
	if len(ci.q) >= SendCapacity {
		return false
	}
	ci.q = append(ci.q, pending{seq: meta.Seq, injected: now})
	if st := r.stops[ci.srcPos]; st.tr != nil {
		st.tr.Emit(trace.Event{Time: now, Kind: trace.Inject, Conn: conn,
			Seq: meta.Seq, Slot: trace.NoSlot})
	}
	return true
}

// AttachTracer installs bus as the overlay's event bus and hands every
// stop its emitter. Stops are interned ring by ring in position order,
// so the same build gets the same component ids and a byte-identical
// same-seed event stream. Passing a nil bus detaches everything.
func (n *Network) AttachTracer(bus *trace.Bus) {
	n.eng.SetTracer(bus)
	for _, r := range n.rings {
		for _, st := range r.stops {
			if bus == nil {
				st.tr = nil
			} else {
				st.tr = bus.Emitter(st.name)
			}
		}
	}
}

// Audit subscribes the shared conformance auditor to the overlay's
// contracts: per-connection latency bounds and dwell budgets from the
// ring analysis, injection token buckets from the slot guarantees, and
// per-stop slot-ownership tables. The per-revolution quota check stays
// off — rings of different sizes share no single revolution.
func (n *Network) Audit(bus *trace.Bus, rep fault.Reporter, opts audit.Options) *audit.Auditor {
	set := audit.ContractSet{
		FreqMHz:        n.Cfg.FreqMHz,
		WordBytes:      n.Cfg.WordBytes,
		CheckExclusive: true,
		AllocTables:    make(map[string][]phit.ConnID),
	}
	for _, id := range n.Connections() {
		ci := n.conns[id]
		set.Contracts = append(set.Contracts, audit.Contract{
			Conn:          id,
			SrcName:       ci.ring.stops[ci.srcPos].name,
			DstName:       ci.ring.stops[ci.dstPos].name,
			BoundNs:       ci.boundNs,
			WaitBudgetNs:  waitBudgetNs(ci.boundNs, ci.hops, n.Cfg.FreqMHz),
			GuaranteeMBps: ci.guaranteeMBps,
		})
	}
	for _, r := range n.rings {
		for _, st := range r.stops {
			table := make([]phit.ConnID, r.S)
			sourced := false
			for sid, owner := range r.alloc {
				if owner != phit.None && r.conns[owner].srcPos == st.pos {
					table[sid] = owner
					sourced = true
				}
			}
			if sourced {
				set.AllocTables[st.name] = table
			}
		}
	}
	return audit.AttachContracts(set, bus, rep, opts)
}

// ResetStats clears measurements without touching protocol state.
func (n *Network) ResetStats() {
	for _, ci := range n.conns {
		ci.delivered = 0
		ci.latNs = stats.Histogram{}
		ci.firstNs = 0
		ci.lastNs = 0
	}
}

// Run simulates warm-up, clears statistics, measures, and reports in the
// shared core.Report shape so experiments treat every backend uniformly.
func (n *Network) Run(warmupNs, measureNs float64) *core.Report {
	core.OpenWindow(n.eng, warmupNs, measureNs, n.ResetStats)(measureNs)

	r := &core.Report{
		Name:       n.Spec.Name,
		FreqMHz:    n.Cfg.FreqMHz,
		Mode:       "routerless",
		MeasureNs:  measureNs,
		TotalEdges: n.eng.Edges(),
	}
	for _, id := range n.Connections() {
		ci := n.conns[id]
		cr := core.ConnReport{
			Conn:              id,
			App:               ci.spec.App,
			RequiredMBps:      ci.spec.BandwidthMBps,
			RequiredLatencyNs: ci.spec.MaxLatencyNs,
			Slots:             len(ci.slotSet),
			GuaranteedMBps:    ci.guaranteeMBps,
			BoundNs:           ci.boundNs,
			PathHops:          ci.hops,
		}
		cr.SetMeasured(ni.ConnStats{Delivered: ci.delivered, Latency: &ci.latNs, FirstNs: ci.firstNs, LastNs: ci.lastNs},
			n.Cfg.WordBytes, true)
		r.Conns = append(r.Conns, cr)
	}
	return r
}

// WriteRings renders the overlay's ring/slot occupancy, one line per
// ring, for the allocation-inspection CLI.
func (n *Network) WriteRings(w io.Writer) {
	for _, r := range n.rings {
		used := 0
		for _, c := range r.alloc {
			if c != phit.None {
				used++
			}
		}
		ids := make([]int, 0)
		seen := map[phit.ConnID]bool{}
		for _, c := range r.alloc {
			if c != phit.None && !seen[c] {
				seen[c] = true
				ids = append(ids, int(c))
			}
		}
		sort.Ints(ids)
		fmt.Fprintf(w, "%-8s %3d stops, %3d/%3d slots used, conns %v\n", r.name, r.S, used, r.S, ids)
	}
}
