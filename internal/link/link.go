package link

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/sim"
	"repro/internal/trace"
)

// FIFODepth is the bi-synchronous FIFO depth in words; the paper sizes it
// at 4 so that it can never fill under the skew bound.
const FIFODepth = 4

// A Stage is one mesochronous link pipeline stage. Construct with
// NewStage, then register both returned components with the engine.
type Stage struct {
	name string
	fifo *sim.Bisync[phit.Phit]
	rep  fault.Reporter

	// tr, when non-nil, receives LinkForward events (one per forwarded
	// flit, from the reader FSM) and Occupancy events (FIFO fill
	// high-water marks, from the writer tap). maxOcc ratchets the traced
	// mark so steady-state traffic emits nothing.
	tr     *trace.Emitter
	maxOcc int

	// Hyperperiod-boundary snapshot of maxOcc (see replay.go).
	mMaxOcc int

	// buildDelay is the construction-time forwarding delay; the in-envelope
	// bound of the one-flit-cycle latency check (faults may stretch the
	// live delay).
	buildDelay clock.Duration

	tap *writerTap
	fsm *readerFSM
}

// NewStage builds a stage between a writer-domain wire and a reader-domain
// wire.
//
//	in:  driven by the upstream element (router or NI) in writerClk's
//	     domain; writerClk is the source-synchronous clock that travels
//	     with the data.
//	out: read by the downstream element in readerClk's domain.
//
// forwardDelay is the FIFO's synchroniser forwarding delay (the paper
// assumes one to two cycles; pass e.g. readerClk.Period for one cycle).
// The writer/reader skew is |writerClk.Phase - readerClk.Phase| and must
// be at most half a period — the bound is inclusive: skew of exactly
// Period/2 is legal.
//
// rep is the violation reporter: nil keeps the fail-fast panics; a
// collector turns the construction-time envelope checks (skew bound,
// alignment feasibility) into fault.Violation records and builds the stage
// anyway, deliberately out of envelope, so that fault campaigns can
// observe how it misbehaves.
func NewStage(name string, in *sim.Wire[phit.Phit], out *sim.Wire[phit.Phit],
	writerClk, readerClk *clock.Clock, forwardDelay clock.Duration, rep fault.Reporter) *Stage {
	if writerClk.Period != readerClk.Period {
		panic(fmt.Sprintf("link %s: mesochronous stage requires equal periods (writer %d ps, reader %d ps); use the asynchronous wrapper for plesiochronous operation",
			name, writerClk.Period, readerClk.Period))
	}
	skew := writerClk.Phase - readerClk.Phase
	if skew < 0 {
		skew = -skew
	}
	if 2*skew > writerClk.Period {
		fault.Report(rep, fault.Violation{
			Kind: fault.SkewBound, Component: "link " + name, Slot: fault.NoSlot,
			Detail: fmt.Sprintf("skew %d ps exceeds half a period (%d ps) — outside the paper's mesochronous operating assumption",
				skew, writerClk.Period/2),
		})
	}
	if forwardDelay <= 0 {
		panic(fmt.Sprintf("link %s: non-positive FIFO forwarding delay", name))
	}
	// Alignment feasibility: a flit's first word is pushed one writer
	// cycle after the driving edge and becomes visible forwardDelay
	// later; the FSM must catch it at the *next* reader flit boundary,
	// at most two reader cycles on, for the uniform +1-slot TDM shift to
	// hold on every link. Hence forwardDelay + (writer phase - reader
	// phase) <= 2 cycles. A 2-cycle FIFO therefore tolerates no adverse
	// skew; the paper's full half-cycle skew budget needs a forwarding
	// delay of at most 1.5 cycles.
	if forwardDelay+(writerClk.Phase-readerClk.Phase) > 2*writerClk.Period {
		fault.Report(rep, fault.Violation{
			Kind: fault.AlignBound, Component: "link " + name, Slot: fault.NoSlot,
			Detail: fmt.Sprintf("forwarding delay %d ps plus adverse skew %d ps exceeds two cycles — flits would mis-align by a whole slot and break the TDM schedule",
				forwardDelay, writerClk.Phase-readerClk.Phase),
		})
	}
	s := &Stage{
		name:       name,
		fifo:       sim.NewBisync[phit.Phit](name+".fifo", FIFODepth, forwardDelay),
		rep:        rep,
		buildDelay: forwardDelay,
	}
	s.tap = &writerTap{stage: s, clk: writerClk, in: in}
	s.fsm = &readerFSM{stage: s, clk: readerClk, out: out}
	return s
}

// SetTracer installs the stage's lifecycle-event emitter; nil disables
// tracing.
func (s *Stage) SetTracer(e *trace.Emitter) { s.tr = e }

// StretchForwardDelay adds delta to the FIFO's forwarding delay — the
// fault model of a slow or metastable synchroniser.
func (s *Stage) StretchForwardDelay(delta clock.Duration) {
	s.fifo.SetForwardDelay(s.fifo.ForwardDelay() + delta)
}

// Name returns the stage's name.
func (s *Stage) Name() string { return s.name }

// FIFOName returns the diagnostic name of the stage's bi-synchronous FIFO.
func (s *Stage) FIFOName() string { return s.fifo.Name() }

// Components returns the two engine components of the stage (writer tap
// and reader FSM); register both with Engine.Add.
func (s *Stage) Components() []sim.Component {
	return []sim.Component{s.tap, s.fsm}
}

// MaxFIFOOccupancy reports the FIFO's high-water mark; the Section V
// invariant is that it never exceeds FIFODepth (enforced by panic) and in
// fact stays below it under the stated assumptions.
func (s *Stage) MaxFIFOOccupancy() int { return s.fifo.MaxOccupancy() }

// writerTap reads the upstream wire on the source-synchronous clock and
// pushes valid words into the bi-synchronous FIFO.
type writerTap struct {
	stage *Stage
	clk   *clock.Clock
	in    *sim.Wire[phit.Phit]
}

func (t *writerTap) Name() string        { return t.stage.name + ".tap" }
func (t *writerTap) Clock() *clock.Clock { return t.clk }

func (t *writerTap) Update(now clock.Time) {
	if p := t.in.Ref(); p.Valid {
		// aelite sizes the FIFO to never fill under the skew assumption,
		// so a full FIFO is an envelope violation; the word is lost, as
		// it would be in hardware (there is no full/accept handshake,
		// by design).
		if !t.stage.fifo.CanPush() {
			fault.Report(t.stage.rep, fault.Violation{
				Kind: fault.FIFOOverflow, Component: "link " + t.stage.name, Time: now, Slot: fault.NoSlot,
				Detail: fmt.Sprintf("bi-synchronous FIFO overflow (capacity %d), word dropped", FIFODepth),
			})
			return
		}
		t.stage.fifo.Push(now, *p)
		if t.stage.tr != nil {
			if l := t.stage.fifo.Len(); l > t.stage.maxOcc {
				t.stage.maxOcc = l
				t.stage.tr.Emit(trace.Event{Time: now, Kind: trace.Occupancy,
					Arg: int64(l), Slot: trace.NoSlot})
			}
		}
	}
}

// readerFSM re-aligns flits to the reader's flit-cycle boundaries.
type readerFSM struct {
	stage *Stage
	clk   *clock.Clock
	out   *sim.Wire[phit.Phit]

	forwarding bool
}

func (f *readerFSM) Name() string        { return f.stage.name + ".fsm" }
func (f *readerFSM) Clock() *clock.Clock { return f.clk }

func (f *readerFSM) Update(now clock.Time) {
	n, ok := f.clk.EdgeIndex(now)
	if !ok {
		panic(fmt.Sprintf("link %s: update off-edge at %d ps", f.stage.name, now))
	}
	state := int(n % phit.FlitWords)
	if state == 0 {
		f.forwarding = f.stage.fifo.Valid(now)
		if f.forwarding {
			// Section V's latency claim: a stage adds exactly one flit
			// cycle. In envelope, the head word waits at most the
			// forwarding delay plus one flit cycle before the FSM picks
			// it up; a longer wait means the alignment slipped a slot
			// (stretched synchroniser, clock drift) and the TDM
			// reservation downstream no longer matches.
			bound := f.stage.buildDelay + phit.FlitWords*f.clk.Period
			if age := f.stage.fifo.HeadAge(now); age > bound {
				fault.Report(f.stage.rep, fault.Violation{
					Kind: fault.LinkLatency, Component: "link " + f.stage.name, Time: now, Slot: fault.NoSlot,
					Detail: fmt.Sprintf("head word waited %d ps, above the one-flit-cycle bound of %d ps", age, bound),
				})
			}
		}
	}
	if !f.forwarding {
		fault.DrivePhit(f.out, &phit.Phit{})
		return
	}
	// Accept is high: pop one word this cycle. An empty FIFO mid-flit
	// violates the nominal one-word-per-cycle rate assumption (a used
	// slot must carry a whole flit); the flit is truncated and the FSM
	// resynchronises at the next flit boundary.
	if !f.stage.fifo.Valid(now) {
		fault.Report(f.stage.rep, fault.Violation{
			Kind: fault.FIFOUnderflow, Component: "link " + f.stage.name, Time: now, Slot: fault.NoSlot,
			Detail: fmt.Sprintf("FIFO underflow in flit state %d — writer sent a partial flit", state),
		})
		f.forwarding = false
		fault.DrivePhit(f.out, &phit.Phit{})
		return
	}
	p := f.stage.fifo.Pop(now)
	fault.DrivePhit(f.out, &p)
	if f.stage.tr != nil && state == 0 {
		f.stage.tr.Emit(trace.Event{Time: now, Kind: trace.LinkForward,
			Conn: p.Meta.Conn, Seq: p.Meta.Seq, Slot: trace.NoSlot})
	}
	if state == phit.FlitWords-1 {
		f.forwarding = false
	}
}
