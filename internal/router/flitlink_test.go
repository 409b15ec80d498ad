package router

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/sim"
	"repro/internal/trace"
)

// wordSource drives word e of each stream onto its word wire at edge e.
type wordSource struct {
	clk     *clock.Clock
	wires   []*sim.Wire[phit.Phit]
	streams [][]phit.Phit
}

func (s *wordSource) Name() string        { return "words" }
func (s *wordSource) Clock() *clock.Clock { return s.clk }
func (s *wordSource) Update(now clock.Time) {
	e, _ := s.clk.EdgeIndex(now)
	for i, w := range s.wires {
		w.Drive(s.streams[i][e])
	}
}

// flitSource drives, at each flit edge e, words e to e+2 of each stream
// onto its flit link as one flit: the word source's words, a flit at a
// time.
type flitSource struct {
	clk     *clock.Clock
	links   []*fault.FlitLink
	streams [][]phit.Phit
}

func (s *flitSource) Name() string        { return "flits" }
func (s *flitSource) Clock() *clock.Clock { return s.clk }
func (s *flitSource) Update(now clock.Time) {
	e, _ := s.clk.EdgeIndex(now)
	if e%phit.FlitWords != 0 {
		return
	}
	for i, l := range s.links {
		var f phit.Flit
		copy(f[:], s.streams[i][e:])
		l.Drive(now, &f, !f.Empty())
	}
}

// cleanStream draws the word stream an unperturbed network carries on one
// link: whole flits, each empty or led by a valid word, of packets (a
// header whose first hop is port, payload, an EoP) padded to the flit
// boundary, with now and then an idle inside a flit.
func cleanStream(t *testing.T, rng *rand.Rand, conn phit.ConnID, port, words int) []phit.Phit {
	out := make([]phit.Phit, 0, words+16)
	var seq int64
	for len(out) < words {
		if rng.Intn(10) < 4 {
			out = append(out, phit.IdlePhit, phit.IdlePhit, phit.IdlePhit)
			continue
		}
		h := header(t, []int{port, rng.Intn(8)}, rng.Intn(4))
		h.Meta.Conn = conn
		n := rng.Intn(6)
		if n == 0 {
			h.Kind, h.EoP = phit.CreditOnly, true
		}
		out = append(out, h)
		for k := 0; k < n; k++ {
			if len(out)%phit.FlitWords != 0 && rng.Intn(6) == 0 {
				out = append(out, phit.IdlePhit) // idle padding inside a flit
			}
			out = append(out, phit.Phit{Valid: true, Kind: phit.Payload, EoP: k == n-1, Data: phit.Word(seq),
				Meta: phit.Meta{Conn: conn, Seq: seq, Injected: clock.Time(len(out))}})
			seq++
		}
		for len(out)%phit.FlitWords != 0 {
			out = append(out, phit.IdlePhit)
		}
	}
	return out[:words]
}

// flitEdges steps a flit router on its own in an engine, switching at
// flit edges as a network's fabric component does.
type flitEdges struct{ *FlitComponent }

func (r flitEdges) Clock() *clock.Clock { return r.clk }

func (r flitEdges) Update(now clock.Time) {
	if edge, _ := r.clk.EdgeIndex(now); edge%phit.FlitWords == 0 {
		r.Switch(now)
	}
}

// TestFlitComponentMatchesComponent runs the router on flit links beside
// the word pipeline on word links, fed the same random clean word streams:
// input i routes every packet to output i+1 (mod 4), so no two inputs
// meet. Input 4 and output 4 are unconnected. At every edge both must
// drive the same word on every output, and in the end they must have
// traced the same events, at the same instants and in the same order.
func TestFlitComponentMatchesComponent(t *testing.T) {
	const arity, wired, cycles = 5, 4, 20000
	clk := clock.NewMHz("clk", 500, 0)
	eng := sim.New()
	wordBus, flitBus := trace.NewBus(), trace.NewBus()
	wordEvents, flitEvents := &eventLog{}, &eventLog{}
	wordBus.Attach(wordEvents)
	flitBus.Attach(flitEvents)

	wr := NewComponent("r", arity, layout, clk)
	wr.SetTracer(wordBus.Emitter("r"))
	fr := NewFlitComponent("r", arity, layout, clk)
	fr.SetTracer(flitBus.Emitter("r"))

	rng := rand.New(rand.NewSource(7))
	ws, fs := &wordSource{clk: clk}, &flitSource{clk: clk}
	var wordOuts []*sim.Wire[phit.Phit]
	var flitOuts []*fault.FlitLink
	for i := 0; i < wired; i++ {
		stream := append(make([]phit.Phit, phit.FlitWords), cleanStream(t, rng, phit.ConnID(i+1), (i+1)%wired, cycles+phit.FlitWords)...)
		in, out := sim.NewWire[phit.Phit]("in"), sim.NewWire[phit.Phit]("out")
		eng.AddWireClocked(in, clk)
		eng.AddWireClocked(out, clk)
		wr.ConnectIn(i, in)
		wr.ConnectOut(i, out)
		ws.wires = append(ws.wires, in)
		ws.streams = append(ws.streams, stream)
		wordOuts = append(wordOuts, out)

		fin, fout := fault.NewFlitLink("in"), fault.NewFlitLink("out")
		eng.AddWireClocked(fin.Flits, clk)
		eng.AddWireClocked(fout.Flits, clk)
		fr.ConnectIn(i, fin)
		fr.ConnectOut(i, fout)
		fs.links = append(fs.links, fin)
		fs.streams = append(fs.streams, stream)
		flitOuts = append(flitOuts, fout)
	}
	eng.Add(ws)
	eng.Add(fs)
	eng.Add(wr)
	eng.Add(flitEdges{fr})
	for e := int64(1); e <= cycles; e++ {
		now := clk.EdgeAt(e)
		eng.Run(now)
		for i := range wordOuts {
			want := wordOuts[i].Read()
			got := flitOuts[i].Flits.Read()[e%phit.FlitWords]
			if got != want {
				t.Fatalf("edge %d output %d: flit links drive %v, word links %v", e, i, got, want)
			}
		}
	}
	if len(flitEvents.evs) != len(wordEvents.evs) || len(wordEvents.evs) == 0 {
		t.Fatalf("%d events on flit links, %d on word links", len(flitEvents.evs), len(wordEvents.evs))
	}
	for i, ev := range wordEvents.evs {
		if flitEvents.evs[i] != ev {
			t.Fatalf("event %d: %+v on flit links, %+v on word links", i, flitEvents.evs[i], ev)
		}
	}
}

// TestFlitComponentFailsFast drives each envelope violation the datapath
// can meet through the router on flit links and through the word pipeline,
// at a word other than a flit's first where the stamp depends on it: the
// router on flit links has no reporter, and must panic with the word
// pipeline's message, stamped with the same instant. That holds stepWord's
// stamps to the pipeline's: the HPU's one period before the word reaches
// the switch, the switch's at the word's own edge.
func TestFlitComponentFailsFast(t *testing.T) {
	const arity, wired, cycles = 5, 4, 30
	pay := func(conn phit.ConnID, eop bool) phit.Phit {
		return phit.Phit{Valid: true, Kind: phit.Payload, EoP: eop, Meta: phit.Meta{Conn: conn}}
	}
	head := func(port int, conn phit.ConnID, kind phit.Kind, eop bool) phit.Phit {
		h := header(t, []int{port, 0}, 0)
		h.Kind, h.EoP, h.Meta.Conn = kind, eop, conn
		return h
	}
	for _, c := range []struct {
		name  string
		words map[int]map[int]phit.Phit // input -> edge -> word
		want  string
	}{
		// A packet for the unconnected output 4, from word 1.
		{"unconnected output", map[int]map[int]phit.Phit{
			0: {7: head(4, 1, phit.Header, false), 8: pay(1, true)},
		}, "unconnected output 4"},
		// Input 0's packet holds output 2 from word 0; input 1's header
		// claims it at word 1 of the same flit.
		{"contention", map[int]map[int]phit.Phit{
			0: {6: head(2, 1, phit.Header, false), 7: pay(1, false), 8: pay(1, true)},
			1: {7: head(2, 2, phit.Header, false), 8: pay(2, true)},
		}, "TDM contention on output 2 between connections 1 and 2"},
		// A payload after input 0's packet ended, at word 2: the HPU
		// expects a header.
		{"protocol error", map[int]map[int]phit.Phit{
			0: {6: head(1, 1, phit.Header, false), 7: pay(1, true), 8: pay(1, false)},
		}, "input 0 expected header"},
		// A header at word 1 whose path leads to port 6 of 5.
		{"bad path", map[int]map[int]phit.Phit{
			0: {6: head(1, 1, phit.CreditOnly, true), 7: head(6, 2, phit.Header, true)},
		}, "input 0 routed to non-existent port 6"},
	} {
		t.Run(c.name, func(t *testing.T) {
			streams := make([][]phit.Phit, wired)
			for i := range streams {
				streams[i] = make([]phit.Phit, cycles+phit.FlitWords)
				for e, p := range c.words[i] {
					streams[i][e] = p
				}
			}
			panicOf := func(flits bool) (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				clk := clock.NewMHz("clk", 500, 0)
				eng := sim.New()
				if flits {
					r := NewFlitComponent("r", arity, layout, clk)
					src := &flitSource{clk: clk, streams: streams}
					for i := 0; i < wired; i++ {
						in, out := fault.NewFlitLink("in"), fault.NewFlitLink("out")
						eng.AddWireClocked(in.Flits, clk)
						eng.AddWireClocked(out.Flits, clk)
						r.ConnectIn(i, in)
						r.ConnectOut(i, out)
						src.links = append(src.links, in)
					}
					eng.Add(src)
					eng.Add(flitEdges{r})
				} else {
					r := NewComponent("r", arity, layout, clk)
					src := &wordSource{clk: clk, streams: streams}
					for i := 0; i < wired; i++ {
						in, out := sim.NewWire[phit.Phit]("in"), sim.NewWire[phit.Phit]("out")
						eng.AddWireClocked(in, clk)
						eng.AddWireClocked(out, clk)
						r.ConnectIn(i, in)
						r.ConnectOut(i, out)
						src.wires = append(src.wires, in)
					}
					eng.Add(src)
					eng.Add(r)
				}
				eng.Run(clk.EdgeAt(cycles))
				return ""
			}
			word, flit := panicOf(false), panicOf(true)
			if !strings.Contains(word, c.want) {
				t.Fatalf("the word pipeline did not fail fast with %q: %q", c.want, word)
			}
			if flit != word {
				t.Errorf("flit links panic with %q, word links with %q", flit, word)
			}
		})
	}
}
