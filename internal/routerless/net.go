package routerless

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ni"
	"repro/internal/phit"
	"repro/internal/spec"
	"repro/internal/trace"
)

// Name implements sim.Component.
func (r *ring) Name() string { return "rl." + r.name }

// Clock implements sim.Component.
func (r *ring) Clock() *clock.Clock { return r.net.base }

// buildVisits derives the visit table from the slot ownership, final once
// every connection is placed: per rotation, in stop order, the meetings of an
// owned slot with its owner's destination or source stop.
func (r *ring) buildVisits() {
	r.visits = make([][]visit, r.S)
	for rot := range r.visits {
		for p := 0; p < r.S; p++ {
			sid := (p - rot + r.S) % r.S
			if ci := r.owner[sid]; ci != nil && (ci.dstPos == p || ci.srcPos == p) {
				r.visits[rot] = append(r.visits[rot], visit{ci: ci, sid: sid, eject: ci.dstPos == p})
			}
		}
	}
}

// Update implements sim.Component: on every flit-cycle boundary the
// wheel rotates one stop, arriving flits eject, and owning stops inject
// into their freshly arrived slots.
func (r *ring) Update(now clock.Time) {
	// The word within the flit advances by one while edges follow each
	// other a period apart; only a first edge or a jump divides.
	period := r.net.base.Period
	if now == r.nextEdge && period == r.edgePeriod {
		if r.word++; r.word == phit.FlitWords {
			r.word = 0
		}
	} else {
		r.word = int(int64(now/period) % phit.FlitWords)
		r.edgePeriod = period
	}
	r.nextEdge = now + period
	if r.word != 0 {
		return
	}
	// Rotate: the entry at stop p moves to stop p+1.
	if r.rot++; r.rot == r.S {
		r.rot = 0
	}

	for _, v := range r.visits[r.rot] {
		ci, sid := v.ci, v.sid
		e := &r.wheel[sid]
		// Ejection first: a slot frees the instant its flit arrives.
		if v.eject {
			if e.n == 0 {
				continue
			}
			st := r.stops[ci.dstPos]
			for _, w := range e.words[:e.n] {
				ci.rx.Record(now, w.injected)
				if st.tr != nil {
					st.tr.Emit(trace.Event{Time: now, Ref: w.injected, Kind: trace.Eject,
						Conn: ci.spec.ID, Seq: w.seq, Slot: trace.NoSlot})
				}
			}
			e.n = 0
			continue
		}
		// Injection: only the slot's owner, only at its source stop, and
		// only into an empty slot. A non-empty owned slot here would mean
		// a flit survived a full revolution — a protocol violation.
		if len(ci.q) == 0 {
			continue
		}
		if e.n > 0 {
			panic(fmt.Sprintf("routerless %s: slot %d returned occupied to its owner (conn %d)", r.Name(), sid, ci.spec.ID))
		}
		e.ci = ci
		e.n = copy(e.words[:], ci.q)
		ci.q = ci.q[:copy(ci.q, ci.q[e.n:])]
		if st := r.stops[ci.srcPos]; st.tr != nil {
			st.tr.Emit(trace.Event{Time: now, Kind: trace.SlotStart, Conn: ci.spec.ID,
				Slot: int32(sid), Arg: int64(e.n)})
			for _, w := range e.words[:e.n] {
				st.tr.Emit(trace.Event{Time: now, Ref: w.injected, Kind: trace.Send,
					Conn: ci.spec.ID, Seq: w.seq, Slot: int32(sid)})
			}
		}
	}
}

// Offer implements traffic.Port: the generator's word enters the
// connection's source queue (blocking-write semantics on a full queue).
func (r *ring) Offer(now clock.Time, conn phit.ConnID, meta phit.Meta) bool {
	ci := find(r.conns, conn)
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

// Contracts states the overlay's analytical contracts for the shared
// conformance auditor: per-connection latency bounds and dwell budgets
// from the ring analysis, injection token buckets from the slot
// guarantees, and per-stop slot tables, each a ring's S slots long, so
// a channel's quota is checked per revolution of its own ring.
func (n *Network) Contracts() analysis.ContractSet {
	set := analysis.ContractSet{
		FreqMHz:     n.Cfg.FreqMHz,
		WordBytes:   n.Cfg.WordBytes,
		AllocTables: make(map[string][]phit.ConnID),
	}
	for _, ci := range n.conns {
		set.Contracts = append(set.Contracts, analysis.Contract{
			Conn:          ci.spec.ID,
			SrcName:       ci.ring.stops[ci.srcPos].name,
			DstName:       ci.ring.stops[ci.dstPos].name,
			BoundPs:       ci.boundNs * 1e3,
			WaitBudgetPs:  analysis.SourceWaitBudgetNs(ci.boundNs, ci.hops, n.Cfg.FreqMHz) * 1e3,
			GuaranteeMBps: ci.guaranteeMBps,
		})
	}
	for _, r := range n.rings {
		for _, st := range r.stops {
			table := make([]phit.ConnID, r.S)
			sourced := false
			for sid, ci := range r.owner {
				if ci != nil && ci.srcPos == st.pos {
					table[sid] = ci.spec.ID
					sourced = true
				}
			}
			if sourced {
				set.AllocTables[st.name] = table
			}
		}
	}
	return set
}

// ResetStats clears measurements without touching protocol state.
func (n *Network) ResetStats() {
	for _, ci := range n.conns {
		ci.rx.Reset()
	}
}

// Run simulates warm-up, clears statistics, measures, and reports in the
// shared core.Report shape so experiments treat every backend uniformly.
func (n *Network) Run(warmupNs, measureNs float64) *core.Report {
	core.OpenWindow(n.eng, warmupNs, measureNs, n.ResetStats)(measureNs)

	head := core.Report{
		Name:       n.Spec.Name,
		FreqMHz:    n.Cfg.FreqMHz,
		Mode:       "routerless",
		MeasureNs:  measureNs,
		TotalEdges: n.eng.Edges(),
	}
	return core.NewReport(head, n.Cfg.WordBytes, true, len(n.conns), func(i int) (spec.Connection, core.ConnectionInfo, *ni.ConnStats) {
		ci := n.conns[i]
		info, _ := n.Info(ci.spec.ID)
		return ci.spec, info, &ci.rx
	})
}

// WriteRings renders the overlay's ring/slot occupancy, one line per
// ring, for the allocation-inspection CLI.
func (n *Network) WriteRings(w io.Writer) {
	for _, r := range n.rings {
		used := 0
		ids := make([]int, 0)
		seen := map[phit.ConnID]bool{}
		for _, ci := range r.owner {
			if ci == nil {
				continue
			}
			used++
			if c := ci.spec.ID; !seen[c] {
				seen[c] = true
				ids = append(ids, int(c))
			}
		}
		sort.Ints(ids)
		fmt.Fprintf(w, "%-8s %3d stops, %3d/%3d slots used, conns %v\n", r.name, r.S, used, r.S, ids)
	}
}
