package replay_test

// Program state-machine tests against a synthetic engine: a minimal
// periodic component proves record -> fingerprint-verify -> engage ->
// whole-epoch replay -> deopt -> re-engage without any NoC machinery,
// asserting both observational equivalence (event streams, edge counts,
// architectural state) and that dispatch was actually skipped.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
)

// beeper emits one traced event every fourth cycle, with a running
// sequence number: the smallest component with a pattern period larger
// than its clock period and seq-carrying state.
type beeper struct {
	name string
	clk  *clock.Clock
	em   *trace.Emitter

	cycle   int64 // architectural: position in the 4-cycle pattern
	seq     int64 // architectural: next sequence number
	updates int64 // dispatch counter, NOT architectural (measures skipping)

	mSeq, dSeq int64
	marked     bool
}

func (b *beeper) Name() string        { return b.name }
func (b *beeper) Clock() *clock.Clock { return b.clk }
func (b *beeper) Update(now clock.Time) {
	b.updates++
	if b.cycle%4 == 0 && b.em != nil {
		b.em.Emit(trace.Event{Time: now, Kind: trace.Inject, Conn: 1, Seq: b.seq, Slot: trace.NoSlot})
		b.seq++
	}
	b.cycle++
}

func (b *beeper) ReplayPeriod() clock.Duration        { return 4 * b.clk.Period }
func (b *beeper) ReplayConnSeq() (phit.ConnID, int64) { return 1, b.seq }
func (b *beeper) ReplayMark(now clock.Time) bool {
	first := !b.marked
	b.marked = true
	b.dSeq = b.seq - b.mSeq
	b.mSeq = b.seq
	return !first
}
func (b *beeper) ReplayFingerprint(ctx *replay.Ctx, buf []byte) []byte {
	buf = replay.AppendI64(buf, b.cycle%4)
	return replay.AppendI64(buf, b.seq-ctx.SeqBase(1))
}
func (b *beeper) ReplayShift(s *replay.Shift) {
	b.cycle += int64(s.DT / b.clk.Period)
	b.seq += s.DSeq(1)
	b.marked = false
}

type eventRec struct{ lines []string }

func (r *eventRec) Event(ev trace.Event) {
	r.lines = append(r.lines, fmt.Sprintf("%d %d %d %d %d %d %s",
		ev.Time, ev.Ref, ev.Seq, ev.Conn, ev.Comp, ev.Slot, ev.Kind))
}

// world is one engine + beeper + recorder, with or without a program.
type world struct {
	eng  *sim.Engine
	b    *beeper
	rec  *eventRec
	prog *replay.Program
}

func newWorld(fast bool) *world {
	w := &world{eng: sim.New(), rec: &eventRec{}}
	clk := clock.New("c", 1000, 0)
	w.b = &beeper{name: "beep", clk: clk}
	w.eng.Add(w.b)
	bus := trace.NewBus()
	bus.Attach(w.rec)
	w.eng.SetTracer(bus)
	w.b.em = bus.Emitter("beep")
	if fast {
		w.prog = replay.Install(w.eng)
	}
	return w
}

func assertSameWorld(t *testing.T, slow, fast *world, stage string) {
	t.Helper()
	if len(slow.rec.lines) != len(fast.rec.lines) {
		t.Fatalf("%s: %d vs %d events", stage, len(slow.rec.lines), len(fast.rec.lines))
	}
	for i := range slow.rec.lines {
		if slow.rec.lines[i] != fast.rec.lines[i] {
			t.Fatalf("%s: event %d diverges:\n  slow: %s\n  fast: %s",
				stage, i, slow.rec.lines[i], fast.rec.lines[i])
		}
	}
	if slow.eng.Edges() != fast.eng.Edges() {
		t.Fatalf("%s: edges %d vs %d", stage, slow.eng.Edges(), fast.eng.Edges())
	}
	fast.eng.Sync()
	if slow.b.cycle != fast.b.cycle || slow.b.seq != fast.b.seq {
		t.Fatalf("%s: state (cycle, seq) = (%d, %d) vs (%d, %d)",
			stage, slow.b.cycle, slow.b.seq, fast.b.cycle, fast.b.seq)
	}
}

func TestProgramEngagesAndReplays(t *testing.T) {
	slow, fast := newWorld(false), newWorld(true)
	slow.eng.Run(200_000)
	fast.eng.Run(200_000)
	assertSameWorld(t, slow, fast, "replay")

	st := fast.prog.ProgStats()
	if st.Engagements == 0 {
		t.Fatal("program never engaged on a trivially periodic world")
	}
	if inert, why := fast.prog.Inert(); inert {
		t.Fatalf("program inert: %s", why)
	}
	if fast.prog.Hyperperiod() != 4000 {
		t.Fatalf("hyperperiod = %d, want 4000", fast.prog.Hyperperiod())
	}
	// The point of the exercise: the fast run must have skipped most of
	// the 200 dispatches the slow run executed.
	if fast.b.updates >= slow.b.updates/2 {
		t.Fatalf("fast path dispatched %d of %d updates; nothing was replayed",
			fast.b.updates, slow.b.updates)
	}
}

// TestProgramDeoptsOnTimerAndReengages: a scheduled callback bounds the
// replay horizon; the program must materialise, let the timer run
// cycle-accurately, then engage again afterwards.
func TestProgramDeoptsOnTimerAndReengages(t *testing.T) {
	slow, fast := newWorld(false), newWorld(true)
	var slowFired, fastFired clock.Time
	slow.eng.At(100_000, func() { slowFired = slow.eng.Now() })
	fast.eng.At(100_000, func() { fastFired = fast.eng.Now() })
	slow.eng.Run(300_000)
	fast.eng.Run(300_000)
	assertSameWorld(t, slow, fast, "timer deopt")
	if slowFired != fastFired || fastFired == 0 {
		t.Fatalf("timer fired at %d vs %d", slowFired, fastFired)
	}
	st := fast.prog.ProgStats()
	if st.Deopts == 0 {
		t.Fatal("timer never deoptimised the program")
	}
	if st.Engagements < 2 {
		t.Fatalf("program engaged %d times; must re-engage after the timer deopt", st.Engagements)
	}
}

// TestProgramInvalidatedByStructuralChange: removing a component while
// engaged must materialise state immediately and keep the run equivalent.
func TestProgramSyncMidEngagement(t *testing.T) {
	slow, fast := newWorld(false), newWorld(true)
	slow.eng.Run(100_000)
	fast.eng.Run(100_000)
	if !fast.prog.Engaged() {
		t.Fatal("program not engaged mid-run")
	}
	// Sync must land the fast-forwarded state without ending the run's
	// equivalence; the engine must be able to continue either way.
	fast.eng.Sync()
	if fast.b.seq != slow.b.seq {
		t.Fatalf("seq after Sync = %d, want %d", fast.b.seq, slow.b.seq)
	}
	slow.eng.Run(150_000)
	fast.eng.Run(150_000)
	assertSameWorld(t, slow, fast, "post-sync")
	if fast.prog.ProgStats().Engagements < 2 {
		t.Fatal("program never re-engaged after Sync")
	}
}

// TestProgramInertOnAperiodicComponent: a component whose ReplayPeriod is
// 0 must keep the program permanently inert, with a reason.
func TestProgramInertOnAperiodicComponent(t *testing.T) {
	w := newWorld(true)
	ap := &beeper{name: "aper", clk: clock.New("c2", 1000, 0)}
	w.eng.Add(&aperiodic{ap})
	w.eng.Run(50_000)
	if inert, why := w.prog.Inert(); !inert || why == "" {
		t.Fatalf("inert = %v (%q); want inert with a reason", inert, why)
	}
	if w.prog.ProgStats().Engagements != 0 {
		t.Fatal("inert program engaged")
	}
}

// aperiodic wraps a beeper but reports no pattern period.
type aperiodic struct{ *beeper }

func (a *aperiodic) ReplayPeriod() clock.Duration { return 0 }

// TestProgramInertReleasesMarkedComponents: a program that goes inert
// after it has marked its components ends their boundary snapshots, so
// none keeps logging for an epoch that will never close, and the
// zero-epoch shift that does it is invisible.
func TestProgramInertReleasesMarkedComponents(t *testing.T) {
	slow, fast := newWorld(false), newWorld(true)
	for _, w := range []*world{slow, fast} {
		w.eng.Run(2_500)
	}
	if !fast.b.marked {
		t.Fatal("the program has not marked the beeper; the release check is vacuous")
	}
	for _, w := range []*world{slow, fast} {
		w.eng.Add(&aperiodic{&beeper{name: "aper", clk: clock.New("c2", 1000, 0)}})
		w.eng.Run(50_000)
	}
	if inert, _ := fast.prog.Inert(); !inert {
		t.Fatal("the program did not go inert")
	}
	if fast.b.marked {
		t.Fatal("the inert program left the beeper's boundary snapshot open")
	}
	assertSameWorld(t, slow, fast, "after going inert")
}

// scribbler keeps its state only in its output wire: each cycle it reads
// the wire back and drives the next count. Its own fingerprint is empty,
// so only the program's fingerprint of the wire can tell two boundaries
// apart.
type scribbler struct {
	clk  *clock.Clock
	out  *sim.Wire[phit.Phit]
	last phit.Phit
}

func (s *scribbler) Name() string        { return "scribble" }
func (s *scribbler) Clock() *clock.Clock { return s.clk }
func (s *scribbler) Update(now clock.Time) {
	s.last = s.out.Read()
	s.out.Drive(phit.Phit{Valid: true, Kind: phit.Header, Data: s.last.Data + 1})
}

func (s *scribbler) ReplayPeriod() clock.Duration                       { return s.clk.Period }
func (s *scribbler) ReplayMark(now clock.Time) bool                     { return true }
func (s *scribbler) ReplayFingerprint(_ *replay.Ctx, buf []byte) []byte { return buf }
func (s *scribbler) ReplayShift(*replay.Shift)                          {}

// addScribbler gives a world a scribbler on a wire that nothing but the
// engine knows of.
func addScribbler(w *world) *sim.Wire[phit.Phit] {
	out := sim.NewWire[phit.Phit]("scribble.out")
	w.eng.AddWire(out)
	w.eng.Add(&scribbler{clk: w.b.clk, out: out})
	return out
}

// TestProgramFingerprintsEveryEngineWire: a wire carrying a value that
// never repeats must keep the program from engaging, though the program
// was never told of the wire. Had it replayed, the wire would be left
// holding a stale count.
func TestProgramFingerprintsEveryEngineWire(t *testing.T) {
	slow, fast := newWorld(false), newWorld(true)
	slowOut, fastOut := addScribbler(slow), addScribbler(fast)
	slow.eng.Run(200_000)
	fast.eng.Run(200_000)
	assertSameWorld(t, slow, fast, "scribbled wire")
	if got, want := fastOut.Read().Data, slowOut.Read().Data; got != want {
		t.Fatalf("wire holds %d after the run, want %d", got, want)
	}
	if n := fast.prog.ProgStats().Engagements; n != 0 {
		t.Fatalf("program engaged %d times on a wire that never repeats", n)
	}
}

// TestProgramInertOnUnsupportedWire: a wire whose value type the program
// cannot fingerprint makes it inert, naming the wire.
func TestProgramInertOnUnsupportedWire(t *testing.T) {
	w := newWorld(true)
	w.eng.AddWire(sim.NewWire[bool]("flag"))
	w.eng.Run(50_000)
	inert, why := w.prog.Inert()
	if !inert || !strings.Contains(why, "wire flag") {
		t.Fatalf("inert = %v (%q); want inert naming wire flag", inert, why)
	}
	if w.prog.ProgStats().Engagements != 0 {
		t.Fatal("inert program engaged")
	}
}

// TestProgramInterceptBlocksEngagement: a commit-time intercept on any
// engine wire keeps the program from engaging for as long as it is
// installed, without making it inert.
func TestProgramInterceptBlocksEngagement(t *testing.T) {
	w := newWorld(true)
	wire := sim.NewWire[int]("credit")
	w.eng.AddWire(wire)
	wire.SetIntercept(func(v int, _ bool) int { return v })
	w.eng.Run(100_000)
	if n := w.prog.ProgStats().Engagements; n != 0 {
		t.Fatalf("program engaged %d times past an intercept", n)
	}
	if inert, why := w.prog.Inert(); inert {
		t.Fatalf("an intercept made the program inert: %s", why)
	}
	wire.SetIntercept(nil)
	w.eng.Run(200_000)
	if w.prog.ProgStats().Engagements == 0 {
		t.Fatal("program never engaged once the intercept was gone")
	}
}
