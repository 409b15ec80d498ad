package routerless

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/trace"
)

// oldUpdate is ring.Update as it stood before the visit table, verbatim
// but for the delivery statistics, which both record through ni.ConnStats:
// it probes every stop on every flit cycle and divides on every edge. The
// differential tests' oracle. On every flit-cycle boundary the
// wheel rotates one stop, arriving flits eject, and owning stops inject
// into their freshly arrived slots.
func (r *ring) oldUpdate(now clock.Time) {
	cycle := int64(now / r.net.base.Period)
	if cycle%int64(phit.FlitWords) != 0 {
		return
	}
	// Rotate: the entry at stop p moves to stop p+1.
	r.rot = (r.rot + 1) % r.S

	for p := 0; p < r.S; p++ {
		sid := (p - r.rot + r.S) % r.S
		e := &r.wheel[sid]
		st := r.stops[p]
		// Ejection first: a slot frees the instant its flit arrives.
		if ci := e.ci; e.n > 0 && ci.dstPos == p {
			for _, w := range e.words[:e.n] {
				ci.rx.Record(now, w.injected)
				if st.tr != nil {
					st.tr.Emit(trace.Event{Time: now, Ref: w.injected, Kind: trace.Eject,
						Conn: ci.spec.ID, Seq: w.seq, Slot: trace.NoSlot})
				}
			}
			e.n = 0
		}
		// Injection: only the slot's owner, only at its source stop, and
		// only into an empty slot. A non-empty owned slot here would mean
		// a flit survived a full revolution — a protocol violation.
		ci := r.owner[sid]
		if ci == nil || ci.srcPos != p || len(ci.q) == 0 {
			continue
		}
		if e.n > 0 {
			panic(fmt.Sprintf("routerless %s: slot %d returned occupied to its owner (conn %d)", r.Name(), sid, ci.spec.ID))
		}
		e.ci = ci
		e.n = copy(e.words[:], ci.q)
		ci.q = ci.q[:copy(ci.q, ci.q[e.n:])]
		if st.tr != nil {
			st.tr.Emit(trace.Event{Time: now, Kind: trace.SlotStart, Conn: ci.spec.ID,
				Slot: int32(sid), Arg: int64(e.n)})
			for _, w := range e.words[:e.n] {
				st.tr.Emit(trace.Event{Time: now, Ref: w.injected, Kind: trace.Send,
					Conn: ci.spec.ID, Seq: w.seq, Slot: int32(sid)})
			}
		}
	}
}
