package router

import (
	"math/rand"
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
	w := int(e % phit.FlitWords)
	for i, l := range s.links {
		var f phit.Flit
		copy(f[:], s.streams[i][e-int64(w):])
		if w == 0 {
			l.Drive(now, &f, !f.Empty())
		}
		l.DriveWord(w, &f)
	}
}

// tick reports a marker violation to every collector at every edge, after
// the routers, so a violation reported at another instant than its stamp
// lands on the wrong side of a marker.
type tick struct {
	clk  *clock.Clock
	cols []*fault.Collector
}

func (k *tick) Name() string        { return "tick" }
func (k *tick) Clock() *clock.Clock { return k.clk }
func (k *tick) Update(now clock.Time) {
	for _, c := range k.cols {
		c.Report(fault.Violation{Component: "tick", Time: now, Slot: fault.NoSlot})
	}
}

// TestFlitComponentMatchesComponent runs the router on flit links beside
// the word pipeline on word links, fed the same random word streams (not
// flit-aligned: packets start at any word, so flits start after their
// first word too). Input 4 and output 4 are unconnected. At every edge
// both must drive the same word on every output, and in the end they must
// have traced the same events and reported the same violations, in the
// same order and at the same instants, between the same per-edge markers. A second run puts a no-op
// intercept on every link's word view from the middle of a flit on, so the
// words also travel over the views.
func TestFlitComponentMatchesComponent(t *testing.T) {
	const arity, wired, cycles, hookAt = 5, 4, 20000, 9001
	for _, hooked := range []bool{false, true} {
		clk := clock.NewMHz("clk", 500, 0)
		eng := sim.New()
		wordCol, flitCol := fault.NewCollector(), fault.NewCollector()
		wordCol.SetKeep(1 << 20)
		flitCol.SetKeep(1 << 20)
		wordBus, flitBus := trace.NewBus(), trace.NewBus()
		wordEvents, flitEvents := &eventLog{}, &eventLog{}
		wordBus.Attach(wordEvents)
		flitBus.Attach(flitEvents)

		wr := NewComponent("r", arity, layout, clk)
		wr.SetReporter(wordCol)
		wr.SetTracer(wordBus.Emitter("r"))
		fr := NewFlitComponent("r", arity, layout, clk)
		fr.SetReporter(flitCol)
		fr.SetTracer(flitBus.Emitter("r"))

		rng := rand.New(rand.NewSource(7))
		ws, fs := &wordSource{clk: clk}, &flitSource{clk: clk}
		views := new(int)
		var wordOuts []*sim.Wire[phit.Phit]
		var flitOuts, all []*fault.FlitLink
		for i := 0; i < wired; i++ {
			stream := append(make([]phit.Phit, phit.FlitWords), randomStream(t, rng, phit.ConnID(i+1), cycles+phit.FlitWords)...)
			in, out := sim.NewWire[phit.Phit]("in"), sim.NewWire[phit.Phit]("out")
			eng.AddWireClocked(in, clk)
			eng.AddWireClocked(out, clk)
			wr.ConnectIn(i, in)
			wr.ConnectOut(i, out)
			ws.wires = append(ws.wires, in)
			ws.streams = append(ws.streams, stream)
			wordOuts = append(wordOuts, out)

			fin, fout := fault.NewFlitLink("in", views), fault.NewFlitLink("out", views)
			for _, l := range []*fault.FlitLink{fin, fout} {
				eng.AddWireClocked(l.Flits, clk)
				eng.AddWireClocked(l.Words, clk)
			}
			fr.ConnectIn(i, fin)
			fr.ConnectOut(i, fout)
			fs.links = append(fs.links, fin)
			fs.streams = append(fs.streams, stream)
			flitOuts = append(flitOuts, fout)
			all = append(all, fin, fout)
		}
		eng.Add(ws)
		eng.Add(fs)
		eng.Add(wr)
		eng.Add(fr)
		eng.Add(&tick{clk: clk, cols: []*fault.Collector{wordCol, flitCol}})
		if hooked {
			eng.At(clk.EdgeAt(hookAt), func() {
				for _, l := range all {
					l.Words.SetIntercept(func(v phit.Phit, driven bool) phit.Phit { return v })
				}
			})
		}
		for e := int64(1); e <= cycles; e++ {
			now := clk.EdgeAt(e)
			eng.Run(now)
			for i := range wordOuts {
				want := wordOuts[i].Read()
				got := flitOuts[i].Flits.Read()[e%phit.FlitWords]
				if hooked && e > hookAt {
					got = flitOuts[i].Words.Read()
				}
				if got != want {
					t.Fatalf("hooked=%v edge %d output %d: flit links drive %v, word links %v", hooked, e, i, got, want)
				}
			}
		}
		if len(flitEvents.evs) != len(wordEvents.evs) || len(wordEvents.evs) == 0 {
			t.Fatalf("hooked=%v: %d events on flit links, %d on word links", hooked, len(flitEvents.evs), len(wordEvents.evs))
		}
		late := 0
		for i, ev := range wordEvents.evs {
			if flitEvents.evs[i] != ev {
				t.Fatalf("hooked=%v event %d: %+v on flit links, %+v on word links", hooked, i, flitEvents.evs[i], ev)
			}
			if (ev.Time/clk.Period)%phit.FlitWords != 0 {
				late++
			}
		}
		if late == 0 {
			t.Errorf("hooked=%v: no flit started after its flit edge; the held events are untested", hooked)
		}
		wv, fv := wordCol.Violations(), flitCol.Violations()
		if len(fv) != len(wv) || len(wv) <= cycles {
			t.Fatalf("hooked=%v: %d violations on flit links, %d on word links", hooked, len(fv), len(wv))
		}
		for i, v := range wv {
			if fv[i] != v {
				t.Fatalf("hooked=%v violation %d: %v on flit links, %v on word links", hooked, i, fv[i], v)
			}
		}
	}
}
