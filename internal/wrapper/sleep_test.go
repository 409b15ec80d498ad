package wrapper

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/sim"
	"repro/internal/trace"
)

// relayActor passes its input flit on, stamped with its fire count, so
// every fire leaves a mark on the ring.
type relayActor struct{ fires int64 }

func (a *relayActor) Fire(now clock.Time, in, out []*phit.Flit) {
	a.fires++
	*out[0] = *in[0]
	out[0][0] = phit.Phit{Valid: true, Kind: phit.Payload, Data: phit.Word(a.fires)}
}

func (a *relayActor) Ports() int        { return 1 }
func (a *relayActor) ActorName() string { return "relay" }

// awake hides a wrapper behind a plain sim.Component, so the engine
// dispatches it on every edge of its clock.
type awake struct{ w *Wrapper }

func (a awake) Name() string          { return a.w.Name() }
func (a awake) Clock() *clock.Clock   { return a.w.Clock() }
func (a awake) Update(now clock.Time) { a.w.Update(now) }

// eventLog records every trace event it is sent.
type eventLog []trace.Event

func (l *eventLog) Event(ev trace.Event) { *l = append(*l, ev) }

// FuzzWrapperSleep runs a ring of wrapped relays on plesiochronous clocks
// up to 1000 ppm apart, some sharing a clock, with PIC stalls injected
// from Engine.At, twice: once with the wrappers registered as they are, so
// the engine lets them sleep through their busy and stalled edges (and a
// clock whose every wrapper sleeps strides), and once with each hidden
// behind a plain sim.Component, dispatched every edge. Both runs must make
// the same fires, count the same stalls, and emit the same WrapperFire
// events at the same instants with the same Arg.
func FuzzWrapperSleep(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(0), uint8(0))
	f.Add(int64(2), uint8(5), uint16(1000), uint8(4))
	f.Add(int64(3), uint8(2), uint16(200), uint8(9))
	f.Add(int64(4), uint8(6), uint16(700), uint8(2))
	f.Add(int64(5), uint8(4), uint16(1000), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, size uint8, ppm uint16, stalls uint8) {
		n := 2 + int(size%5)
		maxPPM := float64(ppm % 1001)
		type run struct {
			fires, stalled []int64
			log            eventLog
			edges          int64
		}
		build := func(sleep bool) run {
			rng := rand.New(rand.NewSource(seed))
			base := clock.NewMHz("base", 500, 0)
			clks := make([]*clock.Clock, 1+rng.Intn(n))
			for i := range clks {
				clks[i] = clock.Plesiochronous(base, fmt.Sprintf("c%d", i), (2*rng.Float64()-1)*maxPPM,
					clock.Duration(rng.Int63n(int64(base.Period))))
			}
			eng := sim.New()
			bus := trace.NewBus()
			var r run
			bus.Attach(&r.log)
			chans := make([]*Channel, n)
			for i := range chans {
				chans[i] = NewChannel(fmt.Sprintf("ch%d", i), 2*base.Period)
			}
			ws := make([]*Wrapper, n)
			for i := range ws {
				ws[i] = New(fmt.Sprintf("w%d", i), clks[rng.Intn(len(clks))], &relayActor{})
				ws[i].ConnectIn(0, chans[i])
				ws[i].ConnectOut(0, chans[(i+1)%n])
				ws[i].SetTracer(bus.Emitter(ws[i].Name()))
				if sleep {
					eng.Add(ws[i])
				} else {
					eng.Add(awake{ws[i]})
				}
			}
			end := 400 * base.Period
			for k := int(stalls % 12); k > 0; k-- {
				w, cycles := ws[rng.Intn(n)], 1+rng.Intn(20)
				at := clock.Time(rng.Int63n(int64(end)))
				if rng.Intn(3) == 0 { // on an edge of the wrapper's clock
					at = w.Clock().EdgeAt(rng.Int63n(400))
				}
				eng.At(at, func() { w.Stall(cycles) })
			}
			for t := clock.Time(0); t < end; {
				t += clock.Time(1 + rng.Int63n(int64(60*base.Period)))
				eng.Run(min(t, end))
			}
			for _, w := range ws {
				r.fires = append(r.fires, w.Fires())
				r.stalled = append(r.stalled, w.Stalled())
			}
			r.edges = eng.Edges()
			return r
		}
		every, sleeping := build(false), build(true)
		if !slices.Equal(every.fires, sleeping.fires) || !slices.Equal(every.stalled, sleeping.stalled) {
			t.Fatalf("fires %v stalls %v when sleeping, %v and %v when dispatched every edge",
				sleeping.fires, sleeping.stalled, every.fires, every.stalled)
		}
		if every.edges != sleeping.edges {
			t.Fatalf("%d edges when sleeping, %d when dispatched every edge", sleeping.edges, every.edges)
		}
		if len(every.log) != len(sleeping.log) {
			t.Fatalf("%d events when sleeping, %d when dispatched every edge", len(sleeping.log), len(every.log))
		}
		for i, ev := range every.log {
			if got := sleeping.log[i]; got != ev {
				t.Fatalf("event %d: %+v when sleeping, %+v when dispatched every edge", i, got, ev)
			}
		}
	})
}
