package link

import (
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/sim"
	"repro/internal/trace"
)

// flitSource emits whole 3-word flits in designated slots of its local
// flit cycle, driving its wire like an aelite NI or router output would.
type flitSource struct {
	name string
	clk  *clock.Clock
	out  *sim.Wire[phit.Phit]
	// sendIn[s] == true makes slot s (mod len) carry a flit.
	sendIn  []bool
	sent    int64
	started bool
}

func (f *flitSource) Name() string        { return f.name }
func (f *flitSource) Clock() *clock.Clock { return f.clk }
func (f *flitSource) Update(now clock.Time) {
	n, _ := f.clk.EdgeIndex(now)
	w := int(n % phit.FlitWords)
	slot := int(n / phit.FlitWords)
	// The engine starts strictly after t=0, so the first executed edge
	// may fall mid-flit; like a real NI, only open flits at phase 0.
	if w == 0 {
		f.started = true
	}
	if !f.started || !f.sendIn[slot%len(f.sendIn)] {
		f.out.Drive(phit.IdlePhit)
		return
	}
	p := phit.Phit{Valid: true, Kind: phit.Payload,
		Meta: phit.Meta{Seq: int64(slot*phit.FlitWords + w)}}
	if w == 0 {
		f.sent++
	}
	f.out.Drive(p)
}

// flitChecker verifies that arriving words are flit-aligned in its own
// clock domain: a flit's word 0 arrives at local phase 1 (the cycle after
// the driver's phase-0 drive), words contiguous.
type flitChecker struct {
	name    string
	clk     *clock.Clock
	in      *sim.Wire[phit.Phit]
	t       *testing.T
	got     int64
	lastSeq int64
	inFlit  int        // words seen in current flit
	first   clock.Time // sample instant of the first valid word
}

func (c *flitChecker) Name() string        { return c.name }
func (c *flitChecker) Clock() *clock.Clock { return c.clk }
func (c *flitChecker) Update(now clock.Time) {
	p := c.in.Read()
	n, _ := c.clk.EdgeIndex(now)
	w := int(n % phit.FlitWords)
	if p.Valid {
		// Word w of a flit driven at the driver's phase (w-1+3)%3 is
		// sampled at our phase w+... the FSM drives word 0 at its
		// phase 0, so we sample it at phase 1.
		want := (c.inFlit + 1) % phit.FlitWords
		if w != want {
			c.t.Errorf("%s: word %d of flit sampled at phase %d, want %d (t=%d)",
				c.name, c.inFlit, w, want, now)
		}
		c.inFlit = (c.inFlit + 1) % phit.FlitWords
		if c.got == 0 {
			c.first = now
		}
		c.got++
		c.lastSeq = p.Meta.Seq
	} else if c.inFlit != 0 {
		c.t.Errorf("%s: flit interrupted after %d words (t=%d)", c.name, c.inFlit, now)
		c.inFlit = 0
	}
}

// runStage wires source -> stage -> checker with the given skew and FIFO
// forwarding delay and runs it, the stage traced into the returned metrics.
func runStage(t *testing.T, skew, fwdDelay clock.Duration, pattern []bool, cycles int64) (*Stage, *flitChecker, *trace.Metrics) {
	t.Helper()
	eng := sim.New()
	wclk := clock.New("w", 2000, 0)
	rclk := clock.New("r", 2000, skew)
	in := sim.NewWire[phit.Phit]("in")
	out := sim.NewWire[phit.Phit]("out")
	eng.AddWire(in)
	eng.AddWire(out)
	st := NewStage("st", in, out, wclk, rclk, fwdDelay, nil)
	for _, c := range st.Components() {
		eng.Add(c)
	}
	bus := trace.NewBus()
	mx := trace.NewMetrics(bus)
	st.SetTracer(bus.Emitter(st.Name()))
	src := &flitSource{name: "src", clk: wclk, out: in, sendIn: pattern}
	chk := &flitChecker{name: "chk", clk: rclk, in: out, t: t}
	eng.Add(src)
	eng.Add(chk)
	eng.Run(clock.Time(cycles) * 2000)
	return st, chk, mx
}

func TestStageAlignsForAnySkew(t *testing.T) {
	pattern := []bool{true, false, true, true, false, false, true, false}
	for _, skew := range []clock.Duration{0, 1, 250, 500, 999, 1000} {
		t.Run(fmt.Sprint(skew), func(t *testing.T) {
			// 600 cycles = 200 slots, half carrying flits: ~300
			// words minus pipeline fill and the flit cut off by
			// simulation end.
			st, chk, mx := runStage(t, skew, 2000, pattern, 600)
			if chk.got < 280 {
				t.Errorf("skew %d: only %d words delivered", skew, chk.got)
			}
			if st.MaxFIFOOccupancy() > FIFODepth {
				t.Errorf("skew %d: FIFO occupancy %d exceeded depth", skew, st.MaxFIFOOccupancy())
			}
			if d := mx.Count(trace.LinkForward) - chk.got/3; d < 0 || d > 1 {
				t.Errorf("forwarded %d flits, checker saw %d words", mx.Count(trace.LinkForward), chk.got)
			}
		})
	}
}

// TestStageExactlyOneFlitCycle: with one-cycle FIFO delay and any legal
// skew, a flit entering the link in slot s reaches the downstream sampler
// exactly one flit cycle later than a direct wire would deliver it —
// the +1 slot shift the allocator assumes.
func TestStageExactlyOneFlitCycle(t *testing.T) {
	eng := sim.New()
	wclk := clock.New("w", 2000, 0)
	rclk := clock.New("r", 2000, 900)
	in := sim.NewWire[phit.Phit]("in")
	out := sim.NewWire[phit.Phit]("out")
	eng.AddWire(in)
	eng.AddWire(out)
	st := NewStage("st", in, out, wclk, rclk, 2000, nil)
	for _, c := range st.Components() {
		eng.Add(c)
	}
	src := &flitSource{name: "src", clk: wclk, out: in, sendIn: []bool{true, false, false, false}}
	eng.Add(src)

	probe := &flitChecker{name: "chk", clk: rclk, in: out, t: t}
	eng.Add(probe)
	eng.Run(50000)
	if probe.got == 0 {
		t.Fatal("nothing delivered")
	}
	firstArrival := probe.first
	// The source opens its first flit in slot 4 (the engine's first
	// executed edge falls mid-flit, so slots 0 and the pattern's
	// off-slots pass idle): word 0 driven at writer edge 12 (t=24000),
	// tapped at edge 13, visible at t=28000, re-aligned to the reader's
	// next flit boundary (edge 15, t=30900) and sampled downstream at
	// edge 16 (t=32900) — exactly the +1 slot (slot 5) the TDM
	// allocation assumes for one link pipeline stage.
	if firstArrival != 32900 {
		t.Errorf("first arrival at %d ps; want 32900 (one slot after link entry)", firstArrival)
	}
}

func TestStagePanicsOnExcessSkew(t *testing.T) {
	wclk := clock.New("w", 2000, 0)
	rclk := clock.New("r", 2000, 1400) // skew 1400 > T/2... phase diff measured directly
	in := sim.NewWire[phit.Phit]("in")
	out := sim.NewWire[phit.Phit]("out")
	defer func() {
		if recover() == nil {
			t.Error("no panic for skew above half a period")
		}
	}()
	NewStage("st", in, out, wclk, rclk, 2000, nil)
}

func TestStagePanicsOnPeriodMismatch(t *testing.T) {
	wclk := clock.New("w", 2000, 0)
	rclk := clock.New("r", 2200, 0)
	in := sim.NewWire[phit.Phit]("in")
	out := sim.NewWire[phit.Phit]("out")
	defer func() {
		if recover() == nil {
			t.Error("no panic for plesiochronous clocks on a mesochronous stage")
		}
	}()
	NewStage("st", in, out, wclk, rclk, 2000, nil)
}

func TestStagePanicsOnPartialFlit(t *testing.T) {
	// A writer that sends only 2 valid words per flit violates the
	// nominal-rate assumption; the FSM must detect the underflow.
	eng := sim.New()
	wclk := clock.New("w", 2000, 0)
	rclk := clock.New("r", 2000, 0)
	in := sim.NewWire[phit.Phit]("in")
	out := sim.NewWire[phit.Phit]("out")
	eng.AddWire(in)
	eng.AddWire(out)
	st := NewStage("st", in, out, wclk, rclk, 2000, nil)
	for _, c := range st.Components() {
		eng.Add(c)
	}
	bad := &partialSource{clk: wclk, out: in}
	eng.Add(bad)
	defer func() {
		if recover() == nil {
			t.Error("no panic for a partial flit")
		}
	}()
	eng.Run(40 * 2000)
}

type partialSource struct {
	clk *clock.Clock
	out *sim.Wire[phit.Phit]
}

func (p *partialSource) Name() string        { return "bad" }
func (p *partialSource) Clock() *clock.Clock { return p.clk }
func (p *partialSource) Update(now clock.Time) {
	n, _ := p.clk.EdgeIndex(now)
	// Valid on phases 0 and 1 only: a 2-word "flit".
	if n%3 != 2 {
		p.out.Drive(phit.Phit{Valid: true, Kind: phit.Payload})
	} else {
		p.out.Drive(phit.IdlePhit)
	}
}

func TestStagePanicsOnBadDelay(t *testing.T) {
	wclk := clock.New("w", 2000, 0)
	defer func() {
		if recover() == nil {
			t.Error("no panic for non-positive forwarding delay")
		}
	}()
	NewStage("st", nil, nil, wclk, wclk, 0, nil)
}
