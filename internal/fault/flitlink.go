package fault

import (
	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/sim"
)

// A FlitLink is a synchronous link that carries whole flits. Its writer
// drives Flits once per flit cycle, at the flit edge, and a reader clocked
// with it finds at its word-w edge word (w+2) mod FlitWords of the
// committed flit: exactly the word a word link would have committed at the
// edge before. A router reads the whole flit at the next flit edge, one
// flit cycle on, which is the router pipeline's latency.
//
// A synchronous network runs on flit links only when nothing watches or
// perturbs its words: it has no fault reporter (core.Config.FaultReporter),
// so no ownership probe either. A flit link has no word wire to intercept,
// so link faults, probes and slot checkers run on word links, which every
// other network uses.
type FlitLink struct {
	Flits *sim.Wire[phit.Flit]

	// Whether the last flit driven (full) and the one before it (wasFull)
	// had a valid word, and the instant of that drive: readers learn from
	// these whether the committed flit is empty without reading it.
	full, wasFull bool
	at            clock.Time
}

// NewFlitLink returns a link whose flit wire is named name+".flits".
func NewFlitLink(name string) *FlitLink {
	return &FlitLink{Flits: sim.NewWire[phit.Flit](name + ".flits")}
}

// Drive is the writer's flit edge at now: f is the flit of the flit cycle
// it opens, and full reports whether it has a valid word. An empty flit
// after an empty one would change nothing and is not driven.
func (l *FlitLink) Drive(now clock.Time, f *phit.Flit, full bool) {
	if full || l.full {
		l.Flits.DriveFrom(f)
	}
	l.wasFull, l.full, l.at = l.full, full, now
}

// Full reports whether the flit the link holds committed at now has a
// valid word.
func (l *FlitLink) Full(now clock.Time) bool {
	if l.at == now { // driven at this instant: the old flit is committed
		return l.wasFull
	}
	return l.full
}

// idle is what an empty flit's words read as.
var idle phit.Phit

// Word returns, at a reader's word-w edge at now, the word the link
// committed at the edge before. It stays valid until the link's next
// commit, and the caller must not write through it.
func (l *FlitLink) Word(now clock.Time, w int) *phit.Phit {
	if !l.Full(now) {
		return &idle
	}
	return &l.Flits.Ref()[(w+2)%phit.FlitWords]
}

// Quiet reports, at a flit edge at now, that the words a reader takes at
// the next two edges are idle: the writer has driven an empty flit at now.
func (l *FlitLink) Quiet(now clock.Time) bool { return l.at == now && !l.full }

// DrivePhit is a word link's writer driving p onto w at an edge. An idle
// word after an idle one would change nothing and is not driven, unless w
// has an intercept, which sees every edge of a word link driven.
func DrivePhit(w *sim.Wire[phit.Phit], p *phit.Phit) {
	if p.Valid || w.Ref().Valid || w.HasIntercept() {
		w.DriveFrom(p)
	}
}
