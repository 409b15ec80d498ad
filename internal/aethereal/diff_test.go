package aethereal

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The differential tests run the router and the NI beside their verbatim
// predecessors (oracle_test.go) on twin sets of wires under one engine and
// one stimulus, and compare every wire after every cycle.

type beRouter interface {
	sim.Component
	ConnectIn(i int, data *sim.Wire[phit.Phit], credit *sim.Wire[int])
	ConnectOut(i int, data *sim.Wire[phit.Phit], credit *sim.Wire[int], downstreamBuf int)
}

type beNI interface {
	sim.Component
	AddOutConn(OutConnConfig)
	AddInConn(InConnConfig)
	Offer(now clock.Time, conn phit.ConnID, meta phit.Meta) bool
	SetTracer(*trace.Emitter)
}

// twinWires is one side's wires in creation order, so the two sides pair up
// by index.
type twinWires struct {
	eng    *sim.Engine
	data   []*sim.Wire[phit.Phit]
	credit []*sim.Wire[int]
}

func (t *twinWires) link(name string) (*sim.Wire[phit.Phit], *sim.Wire[int]) {
	d := sim.NewWire[phit.Phit](name + ".d")
	c := sim.NewWire[int](name + ".c")
	t.eng.AddWire(d)
	t.eng.AddWire(c)
	t.data = append(t.data, d)
	t.credit = append(t.credit, c)
	return d, c
}

// diffWires reports the first wire on which the two sides disagree.
func diffWires(a, b *twinWires) error {
	for i := range a.data {
		if x, y := a.data[i].Read(), b.data[i].Read(); x != y {
			return fmt.Errorf("wire %s: old %+v, new %+v", a.data[i].Name(), x, y)
		}
		if x, y := a.credit[i].Read(), b.credit[i].Read(); x != y {
			return fmt.Errorf("wire %s: old %d, new %d", a.credit[i].Name(), x, y)
		}
	}
	return nil
}

// diffRouters compares what the two routers hold. The latched head port is
// left out on purpose: the request masks latch every buffered header at
// once, the old probe loop only the ones it reached, and nothing outside
// the router can tell.
func diffRouters(o *oldRouter, n *Router) error {
	switch {
	case o.forwarded != n.forwarded:
		return fmt.Errorf("forwarded: old %d, new %d", o.forwarded, n.forwarded)
	case o.stalls != n.stalls:
		return fmt.Errorf("stalls: old %d, new %d", o.stalls, n.stalls)
	case !slices.Equal(o.rrPtr, n.rrPtr):
		return fmt.Errorf("rrPtr: old %v, new %v", o.rrPtr, n.rrPtr)
	case !slices.Equal(o.locked, n.locked):
		return fmt.Errorf("locked: old %v, new %v", o.locked, n.locked)
	case !slices.Equal(o.outCredit, n.outCredit):
		return fmt.Errorf("outCredit: old %v, new %v", o.outCredit, n.outCredit)
	}
	held := 0
	for i := range o.inBuf {
		if len(o.inBuf[i]) != len(n.inBuf[i]) {
			return fmt.Errorf("input %d holds %d words, new %d", i, len(o.inBuf[i]), len(n.inBuf[i]))
		}
		held += len(n.inBuf[i])
	}
	if held != n.buffered {
		return fmt.Errorf("buffered count %d, buffers hold %d", n.buffered, held)
	}
	return nil
}

// A routerDriver is everything around one router: per input a packet
// source bound by link-level credits, per output a sink that returns
// credits late, in bursts or not at all for a while. Both sides own one
// with the same seed, so as long as the routers agree the stimulus does.
type routerDriver struct {
	clk    *clock.Clock
	rng    *rand.Rand
	arity  int
	maxLen int  // payload words per packet, 0..maxLen
	dead   bool // headers may also ask for ports the router does not drive

	in         []*sim.Wire[phit.Phit] // toward the router, nil when unconnected
	creditBack []*sim.Wire[int]       // credits the router frees toward a source
	out        []*sim.Wire[phit.Phit] // from the router
	creditIn   []*sim.Wire[int]       // credits a sink returns

	srcCredit []int
	left      []int // payload words the open packet still owes, -1 outside a packet
	rate      []float64
	owed      []int // per output, words taken and not yet credited
	starve    []int // per output, cycles of withheld credits left
	seq       int64

	twoPops int // cycles in which a source got two credits back at once
}

func (d *routerDriver) Name() string        { return "driver" }
func (d *routerDriver) Clock() *clock.Clock { return d.clk }

// sample reads this cycle's inputs at the start of Update.
func (d *routerDriver) sample() {
	for i, w := range d.creditBack {
		if w != nil {
			c := w.Read()
			d.srcCredit[i] += c
			if c > 1 {
				d.twoPops++
			}
		}
	}
	for o, w := range d.out {
		if w != nil && w.Read().Valid {
			d.owed[o]++
		}
	}
}

func (d *routerDriver) Update(now clock.Time) {
	d.sample()
	for i, w := range d.in {
		if w == nil {
			continue
		}
		if d.rng.Intn(400) == 0 {
			d.rate[i] = []float64{0, 0.1, 0.6, 1, 1}[d.rng.Intn(5)]
		}
		if d.srcCredit[i] == 0 || d.rng.Float64() >= d.rate[i] {
			// Retract, or restate the idle the wire already carries.
			if d.rng.Intn(2) == 0 {
				w.Drive(phit.IdlePhit)
			} else if w.Read().Valid {
				w.Drive(phit.IdlePhit)
			}
			continue
		}
		d.srcCredit[i]--
		d.seq++
		p := phit.Phit{Valid: true, Kind: phit.Payload, Data: phit.Word(d.seq), Meta: phit.Meta{Conn: phit.ConnID(i + 1), Seq: d.seq}}
		if d.left[i] < 0 {
			port := d.rng.Intn(d.arity - 1) // the last port is never wired
			if d.dead && d.rng.Intn(3000) == 0 {
				port = d.arity - 1 + d.rng.Intn(3) // unwired, or past the arity
			}
			hdr, err := layout.Encode([]int{port, d.rng.Intn(8)}, d.rng.Intn(4), 0)
			if err != nil {
				panic(err)
			}
			p.Kind, p.Data = phit.Header, hdr
			d.left[i] = d.rng.Intn(d.maxLen + 1)
		} else {
			d.left[i]--
		}
		if d.left[i] == 0 {
			p.EoP = true
			d.left[i] = -1
		}
		w.Drive(p)
	}
	for o, w := range d.creditIn {
		if w == nil {
			continue
		}
		c := 0
		switch {
		case d.starve[o] > 0:
			d.starve[o]--
		case d.rng.Intn(300) == 0:
			d.starve[o] = d.rng.Intn(60)
		case d.owed[o] > 0:
			c = 1 + d.rng.Intn(d.owed[o])
			d.owed[o] -= c
		}
		if c != 0 || w.Read() != 0 || d.rng.Intn(2) == 0 {
			w.Drive(c)
		}
	}
}

// routerRig wires one router of arity 5 whose last port is unconnected to a
// driver.
func routerRig(eng *sim.Engine, clk *clock.Clock, r beRouter, seed int64, bufWords, maxLen int, dead bool) (*twinWires, *routerDriver) {
	const arity = 5
	t := &twinWires{eng: eng}
	d := &routerDriver{
		clk: clk, rng: rand.New(rand.NewSource(seed)), arity: arity, maxLen: maxLen, dead: dead,
		in: make([]*sim.Wire[phit.Phit], arity), creditBack: make([]*sim.Wire[int], arity),
		out: make([]*sim.Wire[phit.Phit], arity), creditIn: make([]*sim.Wire[int], arity),
		srcCredit: make([]int, arity), left: make([]int, arity), rate: make([]float64, arity),
		owed: make([]int, arity), starve: make([]int, arity),
	}
	for p := 0; p < arity-1; p++ {
		d.in[p], d.creditBack[p] = t.link(fmt.Sprintf("in%d", p))
		d.out[p], d.creditIn[p] = t.link(fmt.Sprintf("out%d", p))
		r.ConnectIn(p, d.in[p], d.creditBack[p])
		r.ConnectOut(p, d.out[p], d.creditIn[p], bufWords)
		d.srcCredit[p], d.left[p], d.rate[p] = bufWords, -1, 1
	}
	eng.Add(r)
	eng.Add(d)
	return t, d
}

// TestRouterMatchesOldRouter: random packets over 1e5 cycles a seed, with
// credit exhaustion mid-packet, full input buffers, single-word packets,
// an unconnected port and back-to-back packets to rising outputs.
func TestRouterMatchesOldRouter(t *testing.T) {
	cycles := 100000
	if testing.Short() {
		cycles = 20000
	}
	for _, tc := range []struct {
		seed             int64
		bufWords, maxLen int
		dead             bool
	}{
		{1, 2, 3, false}, {2, 4, 1, false}, {3, 8, 6, false}, {4, 3, 0, false}, {5, 4, 4, true}, {6, 8, 17, true},
	} {
		t.Run(fmt.Sprintf("seed%d", tc.seed), func(t *testing.T) {
			eng := sim.New()
			clk := clock.NewMHz("clk", 500, 0)
			or := newOldRouter("R", 5, layout, clk, tc.bufWords)
			nr := NewRouter("R", 5, layout, clk, tc.bufWords)
			ow, _ := routerRig(eng, clk, or, tc.seed, tc.bufWords, tc.maxLen, tc.dead)
			nw, nd := routerRig(eng, clk, nr, tc.seed, tc.bufWords, tc.maxLen, tc.dead)
			full := false
			for c := 0; c < cycles; c++ {
				eng.Run(eng.Now() + clk.Period)
				if err := diffWires(ow, nw); err != nil {
					t.Fatalf("cycle %d: %v", c, err)
				}
				if err := diffRouters(or, nr); err != nil {
					t.Fatalf("cycle %d: %v", c, err)
				}
				for i := range nr.inBuf {
					full = full || len(nr.inBuf[i]) == tc.bufWords
				}
			}
			if tc.dead {
				// Every input ends up behind a packet for a port nobody
				// drives; that both sides park it alike is the point.
				if nr.Forwarded() == 0 || nr.buffered == 0 {
					t.Errorf("%d words switched, %d left waiting", nr.Forwarded(), nr.buffered)
				}
				return
			}
			if nr.Forwarded() < int64(cycles/4) {
				t.Errorf("only %d words switched in %d cycles", nr.Forwarded(), cycles)
			}
			if nr.Stalls() == 0 {
				t.Error("no output ever ran out of credits")
			}
			if !full {
				t.Error("no input buffer ever filled")
			}
			if nd.twoPops == 0 {
				t.Error("no input ever lost two words in one cycle (EoP to one output, next header to a later one)")
			}
		})
	}
}

// TestRouterTwoPopsInOneCycle pins the quirk doc.go records: when an EoP
// leaves input 0 through output 1, output 2 — arbitrated later in the same
// cycle — takes the header that the pop exposed, so input 0 returns two
// credits at once.
func TestRouterTwoPopsInOneCycle(t *testing.T) {
	eng := sim.New()
	clk := clock.NewMHz("clk", 500, 0)
	r := NewRouter("R", 3, layout, clk, 4)
	tw := &twinWires{eng: eng}
	in, back := tw.link("in0")
	out1, cr1 := tw.link("out1")
	out2, cr2 := tw.link("out2")
	r.ConnectIn(0, in, back)
	r.ConnectOut(1, out1, cr1, 1) // one credit: the header leaves, the EoP word waits
	r.ConnectOut(2, out2, cr2, 4)
	eng.Add(r)
	hdr := func(port int) phit.Phit {
		h, _ := layout.Encode([]int{port}, 0, 0)
		return phit.Phit{Valid: true, Kind: phit.Header, Data: h}
	}
	eop := phit.Phit{Valid: true, Kind: phit.Payload, EoP: true}
	step := func(p phit.Phit, credit int) {
		in.Drive(p)
		cr1.Drive(credit)
		eng.Run(eng.Now() + clk.Period)
	}
	step(hdr(1), 0)
	step(eop, 0)
	step(hdr(2), 0)        // header A leaves on output 1's only credit
	step(phit.IdlePhit, 0) // EoP A and header B wait in the buffer, output 1 stalled
	step(phit.IdlePhit, 1) // the credit comes back...
	step(phit.IdlePhit, 0) // ...and is sampled: both words leave in this cycle
	if got := back.Read(); got != 2 {
		t.Fatalf("input 0 returned %d credits in the cycle its EoP left, want 2", got)
	}
	if !out1.Read().EoP || out2.Read().Kind != phit.Header {
		t.Fatalf("outputs carry %v and %v, want the EoP word and the next header", out1.Read(), out2.Read())
	}
}

// fabric is a line of three arity-4 routers (west, east, two NIs each; the
// line's two outer ports stay unconnected) with six NIs.
type fabric struct {
	wires   *twinWires
	routers []beRouter
	nis     []beNI
	sink    *eventLog
}

type eventLog struct{ evs []trace.Event }

func (l *eventLog) Event(ev trace.Event) { l.evs = append(l.evs, ev) }

func buildFabric(eng *sim.Engine, clk *clock.Clock, bufWords, maxPacket int, conns [][2]int,
	newRouter func(name string) beRouter,
	newNI func(name string, in, out *sim.Wire[phit.Phit], creditIn, creditOut *sim.Wire[int]) beNI) *fabric {
	f := &fabric{wires: &twinWires{eng: eng}, sink: &eventLog{}}
	bus := trace.NewBus()
	bus.Attach(f.sink)
	for k := 0; k < 3; k++ {
		f.routers = append(f.routers, newRouter(fmt.Sprintf("R%d", k)))
	}
	for k := 0; k < 2; k++ {
		d, c := f.wires.link(fmt.Sprintf("R%d>R%d", k, k+1))
		f.routers[k].ConnectOut(1, d, c, bufWords)
		f.routers[k+1].ConnectIn(0, d, c)
		d, c = f.wires.link(fmt.Sprintf("R%d>R%d", k+1, k))
		f.routers[k+1].ConnectOut(0, d, c, bufWords)
		f.routers[k].ConnectIn(1, d, c)
	}
	for i := 0; i < 6; i++ {
		r, port := f.routers[i/2], 2+i%2
		toR, toRc := f.wires.link(fmt.Sprintf("N%d>R", i))
		toN, toNc := f.wires.link(fmt.Sprintf("R>N%d", i))
		r.ConnectIn(port, toR, toRc)
		r.ConnectOut(port, toN, toNc, bufWords)
		n := newNI(fmt.Sprintf("N%d", i), toN, toR, toRc, toNc)
		n.SetTracer(bus.Emitter(n.Name()))
		f.nis = append(f.nis, n)
	}
	qid := make([]int, 6)
	for id, c := range conns {
		src, dst := c[0], c[1]
		var path []int
		for k := src / 2; k < dst/2; k++ {
			path = append(path, 1)
		}
		for k := src / 2; k > dst/2; k-- {
			path = append(path, 0)
		}
		hdr, err := layout.Encode(append(path, 2+dst%2), qid[dst], 0)
		if err != nil {
			panic(err)
		}
		f.nis[src].AddOutConn(OutConnConfig{ID: phit.ConnID(id + 1), Header: hdr})
		f.nis[dst].AddInConn(InConnConfig{ID: phit.ConnID(id + 1), QID: qid[dst]})
		qid[dst]++
	}
	for _, r := range f.routers {
		eng.Add(r)
	}
	for _, n := range f.nis {
		eng.Add(n)
	}
	return f
}

// TestFabricMatchesOldFabric: a fabric of new routers and NIs beside one of
// old ones, the same random offers into both, small buffers and packets of
// one word among the cases; every wire every cycle, then every counter,
// histogram and trace event.
func TestFabricMatchesOldFabric(t *testing.T) {
	cycles := 100000
	if testing.Short() {
		cycles = 20000
	}
	for _, tc := range []struct {
		seed                int64
		bufWords, maxPacket int
	}{{11, 2, 1}, {12, 2, 4}, {13, 8, 16}, {14, 3, 2}} {
		t.Run(fmt.Sprintf("seed%d", tc.seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			var conns [][2]int
			for len(conns) < 12 {
				if s, d := rng.Intn(6), rng.Intn(6); s != d {
					conns = append(conns, [2]int{s, d})
				}
			}
			eng := sim.New()
			clk := clock.NewMHz("clk", 500, 0)
			old := buildFabric(eng, clk, tc.bufWords, tc.maxPacket, conns,
				func(name string) beRouter { return newOldRouter(name, 4, layout, clk, tc.bufWords) },
				func(name string, in, out *sim.Wire[phit.Phit], ci, co *sim.Wire[int]) beNI {
					return newOldNI(name, clk, layout, in, out, ci, co, tc.bufWords, tc.maxPacket)
				})
			neu := buildFabric(eng, clk, tc.bufWords, tc.maxPacket, conns,
				func(name string) beRouter { return NewRouter(name, 4, layout, clk, tc.bufWords) },
				func(name string, in, out *sim.Wire[phit.Phit], ci, co *sim.Wire[int]) beNI {
					return NewNI(name, clk, layout, in, out, ci, co, tc.bufWords, tc.maxPacket)
				})
			rate := make([]float64, len(conns))
			var seq int64
			for c := 0; c < cycles; c++ {
				for id, cn := range conns {
					if rng.Intn(500) == 0 {
						rate[id] = []float64{0, 0, 0.05, 0.3, 1}[rng.Intn(5)]
					}
					if rng.Float64() < rate[id] {
						seq++
						m := phit.Meta{Seq: seq, Injected: eng.Now()}
						a := old.nis[cn[0]].Offer(eng.Now(), phit.ConnID(id+1), m)
						b := neu.nis[cn[0]].Offer(eng.Now(), phit.ConnID(id+1), m)
						if a != b {
							t.Fatalf("cycle %d: offer on conn %d accepted old %v, new %v", c, id+1, a, b)
						}
					}
				}
				eng.Run(eng.Now() + clk.Period)
				if err := diffWires(old.wires, neu.wires); err != nil {
					t.Fatalf("cycle %d: %v", c, err)
				}
			}
			var stalls, delivered int64
			for k := range old.routers {
				if err := diffRouters(old.routers[k].(*oldRouter), neu.routers[k].(*Router)); err != nil {
					t.Errorf("router %d: %v", k, err)
				}
				stalls += neu.routers[k].(*Router).Stalls()
			}
			for id, cn := range conns {
				o, n := old.nis[cn[1]].(*oldNI), neu.nis[cn[1]].(*NI).InStats(phit.ConnID(id+1))
				if o.Delivered(phit.ConnID(id+1)) != n.Delivered || !reflect.DeepEqual(o.Latency(phit.ConnID(id+1)), &n.Latency) {
					t.Errorf("conn %d: delivered count or latency histogram differ", id+1)
				}
				delivered += n.Delivered
			}
			if !reflect.DeepEqual(old.sink.evs, neu.sink.evs) {
				t.Errorf("trace streams differ (%d vs %d events)", len(old.sink.evs), len(neu.sink.evs))
			}
			if delivered < int64(cycles/4) || stalls == 0 {
				t.Errorf("the rig is too quiet: %d words delivered, %d stalls", delivered, stalls)
			}
		})
	}
}
