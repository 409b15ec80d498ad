package replay

import (
	"bytes"
	"fmt"

	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/sim"
	"repro/internal/trace"
)

const (
	// DefaultMaxHyperperiod bounds the admissible hyperperiod; component
	// period combinations whose LCM exceeds it keep the program inert.
	DefaultMaxHyperperiod = clock.Duration(1) << 32 // ~4.3 ms

	// maxInstants and maxEvents bound the recording arena; a hyperperiod
	// too dense to record within them makes the program inert rather than
	// letting the arena grow without limit.
	maxInstants = 1 << 21
	maxEvents   = 1 << 20
)

// A Program is the compiled fast path installed on an engine (see the
// package comment for the protocol). Install creates one.
type Program struct {
	eng  *sim.Engine
	bus  *trace.Bus // the engine's tracer at install (or re-anchor) time
	sink *recSink

	// The engine's components and wires as the last rescan found them.
	// Every wire is fingerprinted: phit wires as phits and flit wires as
	// their phits, which a shift moves word by word, and int wires as
	// counts, which it does not.
	comps      []Periodic
	seqSrcs    []SeqSource
	phits      []*sim.Wire[phit.Phit]
	flits      []*sim.Wire[phit.Flit]
	counts     []*sim.Wire[int]
	compsStale bool

	hp clock.Duration // the current hyperperiod (0 before first rescan)

	inert    bool
	inertWhy string

	// Boundary state machine. anchorPending selects "waiting for a boundary
	// to re-baseline at"; otherwise the program is recording the epoch
	// (prevMark, nextMark] unless engaged.
	anchorPending bool
	prevValid     bool
	prevMark      clock.Time
	nextMark      clock.Time
	prevFP        []byte
	fpBuf         []byte
	seqPrev       map[phit.ConnID]int64
	seqNow        map[phit.ConnID]int64
	timersAtMark  int64

	rec     recording
	pending []trace.Event
	capture bool

	// Engaged-replay cursor: the next instant to replay is number i of
	// epoch k, at absolute time base + k*hp + rec.dts[i]. Epoch k is copy
	// k+1 of the recorded one, ep.
	engaged    bool
	base       clock.Time
	k          int64
	i          int
	dseq       map[phit.ConnID]int64 // per-epoch payload sequence advance
	ep         trace.Epoch           // rec.events, each with its dseq resolved
	epochEdges int64

	engagements      int64
	firstEngagedAt   clock.Time
	deopts           [numDeoptCauses]int64
	replayedInstants int64
}

// A recording is one hyperperiod of schedule: per-instant offsets from the
// epoch's opening boundary, edge counts, and the trace events each instant
// emitted (evIdx is the prefix-sum index into events).
type recording struct {
	start  clock.Time
	dts    []clock.Duration
	edges  []int32
	evIdx  []int32
	events []trace.Event
}

func (r *recording) reset(start clock.Time) {
	r.start = start
	r.dts = r.dts[:0]
	r.edges = r.edges[:0]
	r.evIdx = append(r.evIdx[:0], 0)
	r.events = r.events[:0]
}

// recSink captures the events emitted during one cycle-accurately executed
// instant; Observe moves them into the recording arena. It is on the bus
// only while the program is not engaged: replay records nothing.
type recSink struct{ p *Program }

func (s *recSink) Event(ev trace.Event) {
	if s.p.capture {
		s.p.pending = append(s.p.pending, ev)
	}
}

// Install attaches a new program to the engine as its fast path. The
// program finds the engine's components and wires itself, at its first
// executed instant and again after every structural change.
func Install(eng *sim.Engine) *Program {
	p := &Program{
		eng:           eng,
		bus:           eng.Tracer(),
		compsStale:    true,
		anchorPending: true,
		seqPrev:       make(map[phit.ConnID]int64),
		seqNow:        make(map[phit.ConnID]int64),
		dseq:          make(map[phit.ConnID]int64),
	}
	p.sink = &recSink{p: p}
	if p.bus != nil {
		p.bus.Attach(p.sink)
	}
	eng.SetFastPath(p)
	return p
}

// Engaged reports whether the program is currently replaying.
func (p *Program) Engaged() bool { return p.engaged }

// Inert reports whether the program has permanently fallen back to
// cycle-accurate execution, and why.
func (p *Program) Inert() (bool, string) { return p.inert, p.inertWhy }

// Hyperperiod returns the compiled hyperperiod (0 before the first
// successful component scan).
func (p *Program) Hyperperiod() clock.Duration { return p.hp }

// A DeoptCause says why an engaged program handed control back to the
// cycle-accurate engine.
type DeoptCause int

const (
	// DeoptSync: a caller asked for real state (Engine.Sync), as every
	// measurement window does when it closes.
	DeoptSync DeoptCause = iota
	// DeoptTimer: a scheduled callback fell inside the replay horizon.
	DeoptTimer
	// DeoptInvalidated: a structural mutation (component or wire added or
	// removed, clock schedule invalidated).
	DeoptInvalidated
	// DeoptTracer: the engine's tracer was installed or swapped.
	DeoptTracer

	numDeoptCauses
)

// Stats summarises the program's activity.
type Stats struct {
	Engagements int64
	// FirstEngagedAt is the boundary instant the program first engaged
	// at; zero means it never engaged.
	FirstEngagedAt clock.Time
	// Deopts is the total of DeoptsBy, which counts them by DeoptCause.
	Deopts           int64
	DeoptsBy         [numDeoptCauses]int64
	ReplayedInstants int64
}

// ProgStats returns engagement/deopt/replay counters.
func (p *Program) ProgStats() Stats {
	st := Stats{Engagements: p.engagements, FirstEngagedAt: p.firstEngagedAt,
		DeoptsBy: p.deopts, ReplayedInstants: p.replayedInstants}
	for _, n := range p.deopts {
		st.Deopts += n
	}
	return st
}

// goInert falls back to cycle-accurate execution for good. The program
// leaves the engine and the bus, so an aperiodic run pays nothing per
// instant or per event for having had it installed, and it ends the
// boundary snapshot of every component it marked: a zero-epoch shift
// moves nothing, but a component logs its epoch only between a mark and
// the next shift.
func (p *Program) goInert(why string) {
	p.inert = true
	p.inertWhy = why
	p.capture = false
	p.engaged = false
	p.prevValid = false
	p.pending = nil
	p.rec = recording{}
	release := &Shift{DSeq: func(phit.ConnID) int64 { return 0 }}
	for _, c := range p.comps {
		c.ReplayShift(release)
	}
	p.comps, p.phits, p.flits, p.counts = nil, nil, nil, nil
	p.eng.SetFastPath(nil)
	if p.bus != nil {
		p.bus.Detach(p.sink)
	}
}

// rescan rebuilds the component and wire view and the hyperperiod after a
// structural change. It reports false (and makes the program inert) when
// the configuration is not replayable; the view is replaced only on
// success, so going inert releases the components the program marked.
func (p *Program) rescan() bool {
	var comps []Periodic
	var seqSrcs []SeqSource
	var hp clock.Duration
	for _, c := range p.eng.AddOrder() {
		pc, ok := c.(Periodic)
		if !ok {
			p.goInert("component " + c.Name() + " is not replay-periodic")
			return false
		}
		per := pc.ReplayPeriod()
		if per == 0 {
			p.goInert("component " + c.Name() + " is aperiodic")
			return false
		}
		if hp == 0 {
			hp = per
		} else if hp = LCM(hp, per, DefaultMaxHyperperiod); hp == 0 {
			p.goInert("hyperperiod exceeds the admissible bound at component " + c.Name())
			return false
		}
		comps = append(comps, pc)
		if ss, ok := c.(SeqSource); ok {
			seqSrcs = append(seqSrcs, ss)
		}
	}
	if len(comps) == 0 {
		p.goInert("no components registered")
		return false
	}
	var phits []*sim.Wire[phit.Phit]
	var flits []*sim.Wire[phit.Flit]
	var counts []*sim.Wire[int]
	for _, w := range p.eng.Wires() {
		switch w := w.(type) {
		case *sim.Wire[phit.Phit]:
			phits = append(phits, w)
		case *sim.Wire[phit.Flit]:
			flits = append(flits, w)
		case *sim.Wire[int]:
			counts = append(counts, w)
		default:
			p.goInert(fmt.Sprintf("wire %s carries a %T, which replay cannot fingerprint", w.Name(), w))
			return false
		}
	}
	p.comps, p.seqSrcs = comps, seqSrcs
	p.phits, p.flits, p.counts = phits, flits, counts
	p.hp = hp
	p.compsStale = false
	return true
}

func (p *Program) collectSeqs() {
	for c := range p.seqNow {
		delete(p.seqNow, c)
	}
	for _, ss := range p.seqSrcs {
		conn, s := ss.ReplayConnSeq()
		p.seqNow[conn] = s
	}
}

func (p *Program) fingerprint(now clock.Time, buf []byte) []byte {
	ctx := &Ctx{Now: now, SeqBase: func(c phit.ConnID) int64 { return p.seqNow[c] }}
	for _, c := range p.comps {
		buf = c.ReplayFingerprint(ctx, buf)
	}
	// Between instants a wire holds no pending drive, so its committed
	// value is its complete state.
	for _, w := range p.phits {
		buf = AppendPhit(buf, w.Read(), ctx)
	}
	for _, w := range p.flits {
		for _, q := range w.Ref() {
			buf = AppendPhit(buf, q, ctx)
		}
	}
	for _, w := range p.counts {
		buf = AppendI64(buf, int64(w.Read()))
	}
	return buf
}

// intercepted reports whether any wire has a commit-time intercept, which
// makes its commits data-dependent.
func (p *Program) intercepted() bool {
	for _, w := range p.phits {
		if w.HasIntercept() {
			return true
		}
	}
	for _, w := range p.flits {
		if w.HasIntercept() {
			return true
		}
	}
	for _, w := range p.counts {
		if w.HasIntercept() {
			return true
		}
	}
	return false
}

// anchorAt re-baselines every boundary snapshot at the executed instant
// now and starts recording the epoch (now, now+hp].
func (p *Program) anchorAt(now clock.Time) {
	for _, c := range p.comps {
		c.ReplayMark(now)
	}
	p.collectSeqs()
	p.prevFP = p.fingerprint(now, p.prevFP[:0])
	p.seqPrev, p.seqNow = p.seqNow, p.seqPrev
	p.prevValid = true
	p.prevMark = now
	p.nextMark = now + p.hp
	p.timersAtMark = p.eng.TimersRun()
	p.rec.reset(now)
	p.pending = p.pending[:0]
	p.capture = true
	p.anchorPending = false
}

// markAt closes the recorded epoch at the boundary instant now: engage if
// the epoch proved periodic and undisturbed, else roll the boundary and
// record the next epoch.
func (p *Program) markAt(now clock.Time) {
	clean := true
	for _, c := range p.comps {
		if !c.ReplayMark(now) {
			clean = false
		}
	}
	timerClean := p.eng.TimersRun() == p.timersAtMark
	p.collectSeqs()
	p.fpBuf = p.fingerprint(now, p.fpBuf[:0])
	if clean && !p.intercepted() && timerClean && p.prevValid &&
		now-p.prevMark == p.hp && bytes.Equal(p.fpBuf, p.prevFP) {
		p.engage(now)
		return
	}
	p.prevFP, p.fpBuf = p.fpBuf, p.prevFP
	p.seqPrev, p.seqNow = p.seqNow, p.seqPrev
	p.prevValid = true
	p.prevMark = now
	p.nextMark = now + p.hp
	p.timersAtMark = p.eng.TimersRun()
	p.rec.reset(now)
}

func (p *Program) engage(now clock.Time) {
	for c := range p.dseq {
		delete(p.dseq, c)
	}
	for c, s := range p.seqNow {
		p.dseq[c] = s - p.seqPrev[c]
	}
	// Only payload-bearing kinds carry a per-connection sequence number;
	// their zero is reserved for header-stamped events, which are
	// sequence-invariant, and for a connection's very first word. That
	// word never lies in an engaged epoch: a terminating connection's
	// first-ever delivery makes its epoch unclean (ni.ConnStats.Mark), and
	// a word still in flight at the closing boundary would fail the
	// fingerprint, which sees its normalised sequence number.
	p.ep.Events, p.ep.Len = p.rec.events, p.hp
	p.ep.DSeq = p.ep.DSeq[:0]
	for _, ev := range p.rec.events {
		var d int64
		if ev.Seq != 0 {
			switch ev.Kind {
			case trace.Inject, trace.Send, trace.Eject, trace.RouterForward, trace.LinkForward:
				d = p.dseq[ev.Conn]
			}
		}
		p.ep.DSeq = append(p.ep.DSeq, d)
	}
	p.epochEdges = 0
	for _, e := range p.rec.edges {
		p.epochEdges += int64(e)
	}
	if p.bus != nil {
		p.bus.Detach(p.sink)
	}
	p.base = now
	p.k = 0
	p.i = 0
	p.engaged = true
	p.capture = false
	if p.engagements == 0 {
		p.firstEngagedAt = now
	}
	p.engagements++
}

// Observe implements sim.FastPath.
func (p *Program) Observe(now clock.Time, edges int) {
	if p.inert {
		return
	}
	if b := p.eng.Tracer(); b != p.bus {
		// The tracer was installed or swapped mid-run: recorded events
		// belong to the old bus, so re-anchor on the new one.
		if p.bus != nil {
			p.bus.Detach(p.sink)
		}
		p.bus = b
		if b != nil {
			b.Attach(p.sink)
		}
		p.dropEpoch()
		return
	}
	if p.anchorPending {
		if p.compsStale && !p.rescan() {
			return
		}
		p.anchorAt(now)
		return
	}
	if now > p.nextMark {
		// The boundary instant was not an executed instant (the anchor was
		// a timer-only instant off every clock's grid); re-anchor here.
		p.pending = p.pending[:0]
		p.anchorAt(now)
		return
	}
	if len(p.rec.dts) >= maxInstants || len(p.rec.events)+len(p.pending) > maxEvents {
		p.goInert("hyperperiod recording exceeds the arena capacity")
		return
	}
	p.rec.dts = append(p.rec.dts, now-p.rec.start)
	p.rec.edges = append(p.rec.edges, int32(edges))
	p.rec.events = append(p.rec.events, p.pending...)
	p.rec.evIdx = append(p.rec.evIdx, int32(len(p.rec.events)))
	p.pending = p.pending[:0]
	if now == p.nextMark {
		p.markAt(now)
	}
}

// replayPartial replays instants one by one, from the cursor up to the
// horizon or the end of the current epoch, whichever comes first, and
// returns the edges and instants it covered.
func (p *Program) replayPartial(horizon clock.Time) (edges int64, instants int) {
	n := len(p.rec.dts)
	epoch := p.base + clock.Time(p.k)*p.hp
	for epoch+p.rec.dts[p.i] <= horizon {
		if p.bus != nil {
			for j := p.rec.evIdx[p.i]; j < p.rec.evIdx[p.i+1]; j++ {
				p.bus.Emit(p.ep.At(int(j), p.k+1))
			}
		}
		edges += int64(p.rec.edges[p.i])
		instants++
		p.i++
		if p.i == n {
			p.i = 0
			p.k++
			break
		}
	}
	return edges, instants
}

// Step implements sim.FastPath.
func (p *Program) Step(until clock.Time) sim.FastResult {
	if !p.engaged {
		return sim.FastResult{}
	}
	if p.eng.Tracer() != p.bus {
		// Tracer swapped while engaged: materialise; Observe re-anchors.
		p.materialize(DeoptTracer)
		return sim.FastResult{Now: p.eng.Now()}
	}
	horizon := until
	timerBound := false
	if tat, ok := p.eng.NextTimer(); ok && tat-1 < horizon {
		horizon = tat - 1
		timerBound = true
	}
	// An engaged recording holds at least its closing boundary instant.
	// Finish the epoch the cursor stands in, hand every whole epoch inside
	// the horizon to the bus in one stride, then replay the partial epoch
	// that is left.
	var edges int64
	instants := 0
	if p.i > 0 {
		edges, instants = p.replayPartial(horizon)
	}
	if p.i == 0 && p.base+clock.Time(p.k+1)*p.hp <= horizon {
		m := int64((horizon-p.base)/p.hp) - p.k
		if p.bus != nil {
			p.bus.EmitEpochs(&p.ep, p.k+1, m)
		}
		edges += m * p.epochEdges
		instants += int(m) * len(p.rec.dts)
		p.k += m
	}
	e, in := p.replayPartial(horizon)
	edges += e
	instants += in
	p.replayedInstants += int64(instants)
	if !timerBound {
		return sim.FastResult{Now: until, Edges: edges, Instants: instants, Done: true}
	}
	// A scheduled callback bounds the window: materialise real state and
	// hand the instant back to the cycle-accurate loop.
	p.materialize(DeoptTimer)
	return sim.FastResult{Now: p.eng.Now(), Edges: edges, Instants: instants, Done: false}
}

// materialize turns the replay cursor back into real component state: one
// bulk shift over the whole epochs, then a trace-muted resimulation of the
// residual partial epoch.
func (p *Program) materialize(why DeoptCause) {
	m := p.k
	if m > 0 {
		sh := &Shift{Epochs: m, DT: clock.Duration(m) * p.hp,
			DSeq: func(c phit.ConnID) int64 { return m * p.dseq[c] }}
		for _, c := range p.comps {
			c.ReplayShift(sh)
		}
		for _, w := range p.phits {
			w.Adjust(func(v phit.Phit) phit.Phit { return ShiftPhit(v, sh) })
		}
		for _, w := range p.flits {
			w.Adjust(func(f phit.Flit) phit.Flit {
				for k := range f {
					f[k] = ShiftPhit(f[k], sh)
				}
				return f
			})
		}
	}
	boundary := p.base + clock.Time(m)*p.hp
	i := p.i
	p.engaged = false
	p.capture = false
	p.anchorPending = true
	p.deopts[why]++
	if p.bus != nil {
		p.bus.Attach(p.sink)
	}
	p.eng.ResumeAt(boundary)
	if i > 0 {
		// The already-replayed instants of the partial epoch had their
		// events emitted from the recording; resimulate them silently.
		if p.bus != nil {
			p.bus.SetSilent(true)
		}
		p.eng.Resimulate(boundary + p.rec.dts[i-1])
		if p.bus != nil {
			p.bus.SetSilent(false)
		}
	}
}

// Invalidated implements sim.FastPath.
func (p *Program) Invalidated() {
	if p.inert {
		return
	}
	p.compsStale = true
	if p.engaged {
		p.materialize(DeoptInvalidated)
		return
	}
	p.dropEpoch()
}

// dropEpoch abandons the epoch being recorded: the next executed instant
// re-anchors.
func (p *Program) dropEpoch() {
	p.capture = false
	p.pending = p.pending[:0]
	p.anchorPending = true
}

// Sync implements sim.FastPath. Whether or not the program was engaged,
// the next executed instant re-anchors: a caller syncs to read or change
// state (a measurement reset, a reprogrammed table), which would spoil
// the epoch being recorded, so an idle program drops it.
func (p *Program) Sync() {
	if p.inert {
		return
	}
	if !p.engaged {
		p.dropEpoch()
		return
	}
	tnow := p.eng.Now()
	p.materialize(DeoptSync)
	if p.eng.Now() < tnow {
		// No instants exist between the materialised position and tnow (the
		// replay cursor had consumed up to tnow), so restoring the clock is
		// observation-free.
		p.eng.ResumeAt(tnow)
	}
}
