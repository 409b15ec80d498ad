package audit

import (
	"math"

	"repro/internal/clock"
	"repro/internal/trace"
)

// foldState is the part of an auditor's state that a copy of a replayed
// epoch can change. Fold takes it before a copy and compares it with the
// state the copy leaves.
type foldState struct {
	conns []connAudit // by ConnID; the zero value where there is no contract
	chans []chanAudit
	lasts []lastUse // every component's last uses, in CompID and port order
	ports []int     // per component, how many last uses it has
	total int64
}

// Fold implements trace.Folder: it leaves the auditor, its reporter and
// its summary exactly as receiving every event of copies first, ...,
// first+count-1 of ep in order would. It delivers the copies one by one
// until one of them proves that the rest repeat its verdicts, then folds
// the rest.
//
// The proof is induction over the copies. The checks compare times only
// with times of the same copy or of the state, sequence numbers only with
// the state's, and divide time only by periods that the epoch length H is
// a multiple of (every channel's table revolution, and the flit cycle
// times every router output table), so a copy delivered to the state the
// copy before it left, shifted, gives the same verdicts and leaves that
// state shifted the same way. Hence a copy that reports nothing and
// leaves the state it found shifted — equal tokens, flags and maximum
// latencies, equal slot counts and table lengths, each connection's next
// sequence number moved by the sequence advance of its Ejects, and every
// time moved by H and every revolution index by H over the revolution,
// or left as it was — proves the same of every later copy. A copy
// overwrites those times, indices and sequence numbers where it touches
// them, so from the second copy of a call on, one that is left as it was
// is one no later copy reads either. Folding the k copies left then moves
// each of them, and the word counters, on by k times the copy's delta.
//
// An epoch whose copies do not shift uniformly is delivered copy by copy:
// one with a Send or Eject without an injection instant, which At does
// not shift, with an event before time zero or a copy whose times would
// overflow, or whose length is not a multiple of those periods, and so
// is a call of fewer than three copies. A copy that reports, changes a
// flag or meets a resource for the first time proves nothing: delivery
// goes on with the next copy.
func (a *Auditor) Fold(ep *trace.Epoch, first, count int64) {
	if count <= 0 || len(ep.Events) == 0 {
		return
	}
	a.copies += count
	foldable := a.foldable(ep, first, count)
	end := first + count
	for e := first; e < end; e++ {
		check := foldable && e > first && e+1 < end
		if check {
			a.fold.take(a)
		}
		for i := range ep.Events {
			a.Event(ep.At(i, e))
		}
		if check && a.periodic(ep) {
			a.advance(end - 1 - e)
			a.folded += end - 1 - e
			return
		}
	}
}

// foldable reports whether count copies of ep, from copy first on, shift
// uniformly under the auditor's checks, so that a copy that repeats its
// predecessor's verdicts and state proves the rest do too.
func (a *Auditor) foldable(ep *trace.Epoch, first, count int64) bool {
	h := clock.Time(ep.Len)
	if count < 3 || h <= 0 || first < 0 || a.flitCyclePs <= 0 {
		return false
	}
	lo, hi := ep.Events[0].Time, ep.Events[0].Time
	for _, ev := range ep.Events {
		if (ev.Kind == trace.Send || ev.Kind == trace.Eject) && ev.Ref == 0 {
			return false // its wait or latency grows with the shift
		}
		lo, hi = min(lo, ev.Time), max(hi, ev.Time)
	}
	if lo < 0 || first+count-1 > int64((math.MaxInt64-hi)/h) {
		return false
	}
	for _, w := range a.chans {
		if w.quota > 0 && (w.revolutionPs <= 0 || h%w.revolutionPs != 0) {
			return false
		}
	}
	for _, ports := range a.routerTables {
		for _, table := range ports {
			if len(table) > 0 && h%(a.flitCyclePs*clock.Time(len(table))) != 0 {
				return false
			}
		}
	}
	return true
}

// take records the auditor's state into s.
func (s *foldState) take(a *Auditor) {
	s.conns = s.conns[:0]
	for _, ca := range a.conns {
		var c connAudit
		if ca != nil {
			c = *ca
		}
		s.conns = append(s.conns, c)
	}
	s.chans = append(s.chans[:0], a.chans...)
	s.lasts, s.ports = s.lasts[:0], s.ports[:0]
	for _, cp := range a.comps {
		s.lasts = append(s.lasts, cp.last...)
		s.ports = append(s.ports, len(cp.last))
	}
	s.total = a.total
}

// periodic reports whether the copy of ep just delivered reported nothing
// and left the state taken before it shifted by one copy.
func (a *Auditor) periodic(ep *trace.Epoch) bool {
	s := &a.fold
	h := clock.Time(ep.Len)
	if a.total != s.total || len(a.comps) != len(s.ports) {
		return false
	}
	for id, ca := range a.conns {
		if ca == nil {
			continue
		}
		b := &s.conns[id]
		if ca.tokens != b.tokens || ca.primed != b.primed || ca.unregulated != b.unregulated ||
			ca.quarantined != b.quarantined || ca.maxLatPs != b.maxLatPs {
			return false
		}
		if d := ca.lastPs - b.lastPs; d != 0 && d != h {
			return false
		}
	}
	for i, ev := range ep.Events {
		if ca := a.conn(ev.Conn); ev.Kind == trace.Eject && ca != nil && ca.nextSeq-s.conns[ev.Conn].nextSeq != ep.DSeq[i] {
			return false
		}
	}
	for c := range a.chans {
		w, b := &a.chans[c], &s.chans[c]
		if d := w.bucket - b.bucket; w.count != b.count || d != 0 && clock.Time(d)*w.revolutionPs != h {
			return false
		}
	}
	j := 0
	for c := range a.comps {
		last := a.comps[c].last
		if len(last) != s.ports[c] {
			return false
		}
		for p, u := range last {
			if b := s.lasts[j+p]; u != b && (u.conn != b.conn || u.used != b.used || u.time-b.time != h) {
				return false
			}
		}
		j += len(last)
	}
	return true
}

// advance moves the state on by k more copies of the one periodic has
// just compared: every field that moved by a delta moves by k deltas more.
func (a *Auditor) advance(k int64) {
	s := &a.fold
	for id, ca := range a.conns {
		if ca == nil {
			continue
		}
		b := &s.conns[id]
		ca.lastPs += clock.Time(k) * (ca.lastPs - b.lastPs)
		ca.nextSeq += k * (ca.nextSeq - b.nextSeq)
		ca.injected += k * (ca.injected - b.injected)
		ca.delivered += k * (ca.delivered - b.delivered)
	}
	for c := range a.chans {
		w := &a.chans[c]
		w.bucket += k * (w.bucket - s.chans[c].bucket)
	}
	j := 0
	for c := range a.comps {
		last := a.comps[c].last
		for p := range last {
			last[p].time += clock.Time(k) * (last[p].time - s.lasts[j+p].time)
		}
		j += len(last)
	}
}
