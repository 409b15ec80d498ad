package router

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
)

// streamSource drives one pre-drawn phit per wire per cycle.
type streamSource struct {
	clk     *clock.Clock
	wires   []*sim.Wire[phit.Phit]
	streams [][]phit.Phit // streams[wire][cycle]
	cycle   int
}

func (s *streamSource) Name() string        { return "src" }
func (s *streamSource) Clock() *clock.Clock { return s.clk }
func (s *streamSource) Update(now clock.Time) {
	for i, w := range s.wires {
		w.Drive(s.streams[i][s.cycle])
	}
	s.cycle++
}

// randomStream draws a phit stream that is mostly well-formed packets (a
// header naming any port of a 3-bit hop field, payload, an EoP) with enough
// idles, stray payloads and truncated packets that every envelope check of
// the router trips now and then.
func randomStream(t *testing.T, rng *rand.Rand, conn phit.ConnID, cycles int) []phit.Phit {
	out := make([]phit.Phit, 0, cycles+8)
	var seq int64
	for len(out) < cycles {
		switch r := rng.Intn(10); {
		case r < 4:
			out = append(out, phit.IdlePhit)
		case r == 4:
			out = append(out, phit.Phit{Valid: true, Kind: phit.Payload, EoP: rng.Intn(2) == 0, Meta: phit.Meta{Conn: conn, Seq: seq}})
			seq++
		default:
			h := header(t, []int{rng.Intn(8), rng.Intn(8)}, rng.Intn(4))
			h.Meta.Conn = conn
			words := rng.Intn(6)
			if words == 0 {
				h.Kind, h.EoP = phit.CreditOnly, true
			}
			out = append(out, h)
			for w := 0; w < words; w++ {
				p := phit.Phit{Valid: true, Kind: phit.Payload, Data: phit.Word(seq), Meta: phit.Meta{Conn: conn, Seq: seq, Injected: clock.Time(len(out))}}
				p.EoP = w == words-1 && rng.Intn(8) != 0 // now and then a packet is never closed
				seq++
				out = append(out, p)
				if rng.Intn(6) == 0 {
					out = append(out, phit.IdlePhit) // idle padding inside a packet
				}
			}
		}
	}
	return out[:cycles]
}

// TestComponentMatchesCoreStep runs a Component on wires under the engine
// beside a Core stepped by hand with the phits those wires carried, over
// random streams on every connected input. Input 4 is unconnected (it must
// read idle) and so is output 4 (a valid phit for it is a RouteError and is
// dropped). Every cycle the driven outputs and the architectural state
// must agree, and so must the traced events and the reported violations.
func TestComponentMatchesCoreStep(t *testing.T) {
	const arity, wired, cycles = 5, 4, 20000
	clk := clock.NewMHz("clk", 500, 0)
	eng := sim.New()
	compCol, refCol := fault.NewCollector(), fault.NewCollector()
	compCol.SetKeep(1 << 20)
	refCol.SetKeep(1 << 20)
	compBus, refBus := trace.NewBus(), trace.NewBus()
	compEvents, refEvents := &eventLog{}, &eventLog{}
	compBus.Attach(compEvents)
	refBus.Attach(refEvents)

	r := NewComponent("r", arity, layout, clk)
	r.SetReporter(compCol)
	r.SetTracer(compBus.Emitter("r"))
	ref := NewCore("r", arity, layout)
	ref.SetReporter(refCol)
	ref.SetTracer(refBus.Emitter("r"))

	rng := rand.New(rand.NewSource(4))
	src := &streamSource{clk: clk}
	var outs []*sim.Wire[phit.Phit]
	for i := 0; i < wired; i++ {
		in, out := sim.NewWire[phit.Phit]("in"), sim.NewWire[phit.Phit]("out")
		eng.AddWireClocked(in, clk)
		eng.AddWireClocked(out, clk)
		r.ConnectIn(i, in)
		r.ConnectOut(i, out)
		src.wires = append(src.wires, in)
		src.streams = append(src.streams, randomStream(t, rng, phit.ConnID(i+1), cycles))
		outs = append(outs, out)
	}
	eng.Add(src)
	eng.Add(r)

	in := make([]phit.Phit, arity) // what the wires carry into this cycle
	var want []phit.Phit
	var compFP, refFP []byte
	offMesh := 0
	for c := 0; c < cycles; c++ {
		now := clk.EdgeAt(int64(c) + 1) // the engine starts past time 0
		eng.Run(now)
		ref.SetNow(now)
		want = ref.Step(in, want)
		for i, w := range outs {
			if got := w.Read(); got != want[i] {
				t.Fatalf("cycle %d output %d: %v, core drives %v", c, i, got, want[i])
			}
		}
		if want[wired].Valid {
			offMesh++
		}
		ctx := &replay.Ctx{Now: now, SeqBase: func(phit.ConnID) int64 { return 0 }}
		compFP = r.ReplayFingerprint(ctx, compFP[:0])
		refFP = (&Component{core: ref}).ReplayFingerprint(ctx, refFP[:0])
		if !bytes.Equal(compFP, refFP) {
			t.Fatalf("cycle %d: state %x, core %x", c, compFP, refFP)
		}
		for i := range src.streams {
			in[i] = src.streams[i][c]
		}
	}
	if len(compEvents.evs) != len(refEvents.evs) || len(refEvents.evs) == 0 {
		t.Fatalf("%d events, core %d", len(compEvents.evs), len(refEvents.evs))
	}
	for i, ev := range refEvents.evs {
		if compEvents.evs[i] != ev {
			t.Fatalf("event %d: %+v, core %+v", i, compEvents.evs[i], ev)
		}
	}

	// The component reports what the core reports, plus one RouteError per
	// valid phit switched to the unconnected output.
	var comp []string
	dropped := 0
	for _, v := range compCol.Violations() {
		if strings.Contains(v.Detail, "unconnected output 4") {
			if v.Kind != fault.RouteError {
				t.Fatalf("unconnected output reported as %v", v.Kind)
			}
			dropped++
			continue
		}
		comp = append(comp, v.String())
	}
	if dropped != offMesh || offMesh == 0 {
		t.Fatalf("%d RouteErrors for the unconnected output, core switched %d valid phits to it", dropped, offMesh)
	}
	refVs := refCol.Violations()
	if len(comp) != len(refVs) {
		t.Fatalf("%d violations, core %d", len(comp), len(refVs))
	}
	for i, v := range refVs {
		if comp[i] != v.String() {
			t.Fatalf("violation %d: %s, core %s", i, comp[i], v)
		}
	}
	for _, k := range []fault.Kind{fault.RouteError, fault.SlotContention, fault.ProtocolError} {
		if refCol.CountByKind()[k] == 0 {
			t.Errorf("the streams never tripped %v", k)
		}
	}
}

// TestFlitDirectMatchesStep feeds the same flit-aligned random streams to
// a Core through StepFlitDirect, one token per input per iteration, and to
// another through Step, one phit per cycle. Both datapaths must switch the
// same phits (the clocked one two cycles later), trace the same
// RouterForward events and report the same violations, down to the text.
func TestFlitDirectMatchesStep(t *testing.T) {
	const arity, flits = 5, 6000
	flitCol, stepCol := fault.NewCollector(), fault.NewCollector()
	flitCol.SetKeep(1 << 20)
	stepCol.SetKeep(1 << 20)
	flitBus, stepBus := trace.NewBus(), trace.NewBus()
	flitEvents, stepEvents := &eventLog{}, &eventLog{}
	flitBus.Attach(flitEvents)
	stepBus.Attach(stepEvents)
	wrapped, clocked := NewCore("r", arity, layout), NewCore("r", arity, layout)
	wrapped.SetReporter(flitCol)
	wrapped.SetTracer(flitBus.Emitter("r"))
	clocked.SetReporter(stepCol)
	clocked.SetTracer(stepBus.Emitter("r"))

	// Every input is driven, and a header's first hop names any of eight
	// ports: three are off the router, and inputs collide on the others.
	rng := rand.New(rand.NewSource(9))
	streams := make([][]phit.Phit, arity)
	for i := range streams {
		streams[i] = alignFlits(randomStream(t, rng, phit.ConnID(i+1), flits*phit.FlitWords))
	}
	in, out := make([]phit.Flit, arity), make([]phit.Flit, arity)
	inTok, outTok := make([]*phit.Flit, arity), make([]*phit.Flit, arity)
	for i := range in {
		inTok[i], outTok[i] = &in[i], &out[i]
	}
	switched := make([][]phit.Phit, arity) // switched[port][word], StepFlitDirect's
	for n := 0; n < flits; n++ {
		for i := range in {
			copy(in[i][:], streams[i][n*phit.FlitWords:])
		}
		wrapped.StepFlitDirect(inTok, outTok)
		for port := range out {
			switched[port] = append(switched[port], out[port][:]...)
		}
	}
	word := make([]phit.Phit, arity)
	var got []phit.Phit
	const lag = 2 // Step drives word k of its inputs at its call k+2
	for c := 0; c < flits*phit.FlitWords+lag; c++ {
		for i := range word {
			word[i] = phit.IdlePhit
			if c < flits*phit.FlitWords {
				word[i] = streams[i][c]
			}
		}
		got = clocked.Step(word, got)
		if k := c - lag; k >= 0 {
			for port := range got {
				if got[port] != switched[port][k] {
					t.Fatalf("word %d output %d: Step drives %v, StepFlitDirect %v", k, port, got[port], switched[port][k])
				}
			}
		}
	}

	if len(flitEvents.evs) != len(stepEvents.evs) || len(stepEvents.evs) == 0 {
		t.Fatalf("%d events through StepFlitDirect, %d through Step", len(flitEvents.evs), len(stepEvents.evs))
	}
	for i, ev := range stepEvents.evs {
		f := flitEvents.evs[i]
		if f.Kind != trace.RouterForward || f.Conn != ev.Conn || f.Seq != ev.Seq || f.Arg != ev.Arg {
			t.Fatalf("event %d: StepFlitDirect %+v, Step %+v", i, f, ev)
		}
	}

	// Step reports a word's ProtocolError a cycle before its switch
	// checks, StepFlitDirect all of a word's checks input by input, so
	// the violations are compared as sorted lists.
	texts := func(col *fault.Collector) []string {
		var out []string
		for _, v := range col.Violations() {
			out = append(out, v.Kind.String()+": "+v.Detail)
		}
		sort.Strings(out)
		return out
	}
	flitVs, stepVs := texts(flitCol), texts(stepCol)
	if len(flitVs) != len(stepVs) {
		t.Fatalf("%d violations through StepFlitDirect, %d through Step", len(flitVs), len(stepVs))
	}
	for i := range stepVs {
		if flitVs[i] != stepVs[i] {
			t.Fatalf("violation %d: StepFlitDirect %q, Step %q", i, flitVs[i], stepVs[i])
		}
	}
	for _, k := range []fault.Kind{fault.RouteError, fault.SlotContention, fault.ProtocolError} {
		if stepCol.CountByKind()[k] == 0 {
			t.Errorf("the streams never tripped %v", k)
		}
	}
}

// alignFlits pads s with idles so that every packet header starts a flit,
// as the NI's flit-granular output does, and trims it to whole flits.
func alignFlits(s []phit.Phit) []phit.Phit {
	out := make([]phit.Phit, 0, len(s)+len(s)/2)
	for _, p := range s {
		if p.Kind == phit.Header || p.Kind == phit.CreditOnly {
			for len(out)%phit.FlitWords != 0 {
				out = append(out, phit.IdlePhit)
			}
		}
		out = append(out, p)
	}
	return out[:len(s)]
}

type eventLog struct{ evs []trace.Event }

func (l *eventLog) Event(ev trace.Event) { l.evs = append(l.evs, ev) }

// TestComponentCycleDoesNotAllocate pins a steady-state router cycle —
// sample, step, drive, commit, with a tracer attached — at zero allocations.
func TestComponentCycleDoesNotAllocate(t *testing.T) {
	clk := clock.NewMHz("clk", 500, 0)
	eng := sim.New()
	r := NewComponent("r", 3, layout, clk)
	bus := trace.NewBus()
	count := &countSink{}
	bus.Attach(count)
	r.SetTracer(bus.Emitter("r"))
	src := &streamSource{clk: clk}
	for i := 0; i < 3; i++ {
		in, out := sim.NewWire[phit.Phit]("in"), sim.NewWire[phit.Phit]("out")
		eng.AddWireClocked(in, clk)
		eng.AddWireClocked(out, clk)
		r.ConnectIn(i, in)
		r.ConnectOut(i, out)
		src.wires = append(src.wires, in)
		// Whole flits, input i to output (i+1)%3: no contention, no error.
		flit := []phit.Phit{header(t, []int{(i + 1) % 3}, 0), payload(1, false), payload(2, true)}
		var s []phit.Phit
		for len(s) < 3000 {
			s = append(s, flit...)
		}
		src.streams = append(src.streams, s)
	}
	eng.Add(src)
	eng.Add(r)
	eng.Run(clk.EdgeAt(100))
	allocs := testing.AllocsPerRun(500, func() { eng.Run(eng.Now() + clk.Period) })
	if allocs != 0 {
		t.Fatalf("%v allocations per router cycle", allocs)
	}
	if count.n == 0 {
		t.Fatal("nothing was switched")
	}
}

type countSink struct{ n int }

func (c *countSink) Event(trace.Event) { c.n++ }
