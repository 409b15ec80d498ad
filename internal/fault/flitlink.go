package fault

import (
	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/replay"
	"repro/internal/sim"
)

// A FlitLink is a synchronous link that carries whole flits. Its writer
// drives Flits once per flit cycle, at the flit edge, and a reader clocked
// with it finds at its word-w edge word (w+2) mod FlitWords of the
// committed flit: exactly the word a word link would have committed at the
// edge before. A router reads the whole flit at the next flit edge, one
// flit cycle on, which is the router pipeline's latency.
//
// Words is the link's word view, a phit wire that carries nothing while it
// has no intercept. Once one is installed (a LinkHook, or any per-word
// fault), the writer also drives every word onto it at the edge a word
// link would have, the intercept runs on it as on a word link, and readers
// take from it every word it committed. So a fault campaign sees the same
// words at the same edges, with the same RNG draws, on either kind of link.
type FlitLink struct {
	Flits *sim.Wire[phit.Flit]
	Words *sim.Wire[phit.Phit]

	// views counts the word views with an intercept among the links that
	// share it (a network's), so that readers and writers look at their own
	// view only while some view has one.
	views *int

	// Whether the last flit driven (full) and the one before it (wasFull)
	// had a valid word, and the instant of that drive: readers learn from
	// these whether the committed flit is empty without reading it.
	full, wasFull bool
	at            clock.Time
}

// NewFlitLink returns a link whose two wires are named name (the word view,
// which fault campaigns target) and name+".flits". Links that share views
// count their word views with an intercept in it; nil gives the link a
// counter of its own.
func NewFlitLink(name string, views *int) *FlitLink {
	if views == nil {
		views = new(int)
	}
	l := &FlitLink{Flits: sim.NewWire[phit.Flit](name + ".flits"), Words: sim.NewWire[phit.Phit](name), views: views}
	l.Words.CountIntercepts(views)
	return l
}

// Views returns the counter of word views with an intercept the link
// shares.
func (l *FlitLink) Views() *int { return l.views }

// Drive is the writer's flit edge at now: f is the flit of the flit cycle
// it opens, and full reports whether it has a valid word. An empty flit
// after an empty one would change nothing and is not driven.
func (l *FlitLink) Drive(now clock.Time, f *phit.Flit, full bool) {
	if full || l.full {
		l.Flits.DriveFrom(f)
	}
	l.wasFull, l.full, l.at = l.full, full, now
}

// DriveWord is the writer's word-w edge while some view may have an
// intercept: if the link's own has one, it drives word w of the current
// flit f onto it.
func (l *FlitLink) DriveWord(w int, f *phit.Flit) {
	if l.Words.HasIntercept() {
		l.Words.Drive(f[w])
	}
}

// Full reports whether the flit the link holds committed at now has a
// valid word.
func (l *FlitLink) Full(now clock.Time) bool {
	if l.at == now { // driven at this instant: the old flit is committed
		return l.wasFull
	}
	return l.full
}

// DrivePhit is a word link's writer driving p onto w at an edge. An idle
// word after an idle one would change nothing and is not driven, unless w
// has an intercept, which sees every edge of a word link driven.
func DrivePhit(w *sim.Wire[phit.Phit], p *phit.Phit) {
	if p.Valid || w.Ref().Valid || w.HasIntercept() {
		w.DriveFrom(p)
	}
}

// A FlitReader is the reading end of a FlitLink for one component clocked
// with its writer. It remembers whether the word view carried the previous
// edge's word, so it must see every edge at which some view of the link's
// counter has an intercept, and the edge after.
type FlitReader struct {
	link   *FlitLink
	viewed bool       // the word view had an intercept at the previous edge
	mask   uint8      // which words of buf were taken from the view
	buf    *phit.Flit // words of the current flit taken from the view, from the first on
}

// NewFlitReader returns a reader of l.
func NewFlitReader(l *FlitLink) FlitReader { return FlitReader{link: l} }

// Connected reports whether the reader reads a link.
func (r *FlitReader) Connected() bool { return r.link != nil }

// idle is what an empty flit's words read as.
var idle phit.Phit

// Word returns, at the reader's word-w edge at now, the word the link
// committed at the edge before. It stays valid until the link's next
// commit, and the caller must not write through it.
func (r *FlitReader) Word(now clock.Time, w int) *phit.Phit {
	l := r.link
	if r.viewed || *l.views > 0 {
		viewed := r.viewed
		r.viewed = l.Words.HasIntercept()
		if viewed {
			return l.Words.Ref()
		}
	}
	if !l.Full(now) {
		return &idle
	}
	return &l.Flits.Ref()[(w+2)%phit.FlitWords]
}

// Step is a flit reader's word-w edge while some view of the link's
// counter may have an intercept: it keeps the word the view carried, if
// any.
func (r *FlitReader) Step(w int) {
	viewed := r.viewed
	r.viewed = r.link.Words.HasIntercept()
	if viewed {
		if r.buf == nil {
			r.buf = new(phit.Flit)
		}
		k := (w + 2) % phit.FlitWords
		r.buf[k] = *r.link.Words.Ref()
		r.mask |= 1 << k
	}
}

// Quiet reports, at a flit edge at now, that the words the reader takes at
// the next two edges are idle: the writer has driven an empty flit at now,
// and no view of the link's counter has or had an intercept.
func (r *FlitReader) Quiet(now clock.Time) bool {
	l := r.link
	return l.at == now && !l.full && !r.viewed && *l.views == 0
}

// Watched reports whether some view of the link's counter has an
// intercept.
func (r *FlitReader) Watched() bool { return *r.link.views > 0 }

// Full reports whether the flit the link holds committed at now has a
// valid word, not counting words the view carried.
func (r *FlitReader) Full(now clock.Time) bool { return r.link.Full(now) }

// Committed returns the flit the link holds committed, not counting words
// the view carried. The caller must not write it.
func (r *FlitReader) Committed() *phit.Flit { return r.link.Flits.Ref() }

// Peek returns, at now, word k of the flit the link committed last as far
// as the reader has it: from the view if it carried the word, else from
// the committed flit. The caller must not write through it.
func (r *FlitReader) Peek(now clock.Time, k int) *phit.Phit {
	switch {
	case r.mask&(1<<k) != 0:
		return &r.buf[k]
	case !r.link.Full(now):
		return &idle
	}
	return &r.link.Flits.Ref()[k]
}

// Flit returns, at a flit edge at now and after its Step, the flit the
// link committed one flit cycle before, with the words the view carried in
// place of its own, and whether it has a valid word. It stays valid until
// the link's next commit, and the caller must not write it.
func (r *FlitReader) Flit(now clock.Time) (*phit.Flit, bool) {
	f := r.link.Flits.Ref()
	if r.mask == 0 {
		return f, r.link.Full(now)
	}
	for k := range phit.FlitWords {
		if r.mask&(1<<k) == 0 {
			r.buf[k] = f[k]
		}
	}
	r.mask = 0
	return r.buf, !r.buf.Empty()
}

// AppendFingerprint appends the reader's state to a replay fingerprint of
// the component that owns it: whether the view carried the last word, and
// the words of the current flit taken from it.
func (r *FlitReader) AppendFingerprint(ctx *replay.Ctx, buf []byte) []byte {
	flags := int64(r.mask)
	if r.viewed {
		flags |= 1 << 8
	}
	buf = replay.AppendI64(buf, flags)
	var f phit.Flit
	if r.buf != nil {
		f = *r.buf
	}
	for _, p := range f {
		buf = replay.AppendPhit(buf, p, ctx)
	}
	return buf
}

// Shift fast-forwards the words the reader holds, for the replay shift of
// the component that owns it.
func (r *FlitReader) Shift(s *replay.Shift) {
	if r.buf == nil {
		return
	}
	for k := range r.buf {
		r.buf[k] = replay.ShiftPhit(r.buf[k], s)
	}
}

// A LinkReader reads a LinkTarget as a component clocked with the link's
// writer sees it at each edge: the word the writer's previous edge
// committed, from a word wire or from a flit link.
type LinkReader struct {
	wire *sim.Wire[phit.Phit]
	flit FlitReader // on a flit link
	clk  *clock.Clock
	// The word index of the last read, and the edge after it: while the
	// clock ticks undisturbed it advances by one, and only a first read or
	// a time jump divides.
	word int
	next clock.Time
}

// NewLinkReader returns a reader of lt clocked by clk, the writer's clock.
func NewLinkReader(lt LinkTarget, clk *clock.Clock) *LinkReader {
	r := &LinkReader{wire: lt.Wire, clk: clk, next: -1}
	if lt.Flit != nil {
		r.flit = NewFlitReader(lt.Flit)
	}
	return r
}

// Read returns the word the link committed at the edge before now; it must
// be called at every edge of the writer's clock.
func (r *LinkReader) Read(now clock.Time) phit.Phit {
	if !r.flit.Connected() {
		return r.wire.Read()
	}
	if now == r.next {
		if r.word++; r.word == phit.FlitWords {
			r.word = 0
		}
	} else {
		edge, _ := r.clk.EdgeIndex(now)
		r.word = int(edge % phit.FlitWords)
	}
	r.next = now + r.clk.Period
	return *r.flit.Word(now, r.word)
}

// AppendFingerprint appends the reader's state to a replay fingerprint of
// the component that owns it. The cached word index is derived from time
// and re-derived after any jump, so only the view flag is state.
func (r *LinkReader) AppendFingerprint(ctx *replay.Ctx, buf []byte) []byte {
	if !r.flit.Connected() {
		return buf
	}
	return r.flit.AppendFingerprint(ctx, buf)
}
