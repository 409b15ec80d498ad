package routerless

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/analysis"
	"repro/internal/area"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ni"
	"repro/internal/phit"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// SendCapacity is the per-connection source queue depth in words,
// matching the aelite and aethereal NIs so all backends face identical
// IP-side backpressure.
const SendCapacity = 32

// pending is one queued or in-flight payload word.
type pending struct {
	seq      int64
	injected clock.Time
}

// entry is one slot of the wheel and its cargo, held inline: a flit of n
// words of connection ci riding towards ci.dstPos, or nothing when n is 0.
// A slot flit mirrors aelite's format: one of its three words is
// header-equivalent overhead (destination stop + connection id), so it
// carries analysis.PayloadWordsPerSlot payload words and a slot's
// bandwidth is directly comparable between the two fabrics.
type entry struct {
	ci    *connInfo
	n     int
	words [analysis.PayloadWordsPerSlot]pending
}

// stop is one NI's seat on one ring.
type stop struct {
	name string
	pos  int
	ni   topology.NodeID
	tr   *trace.Emitter
}

// A ring is one unidirectional slotted ring, simulated as a single
// component: stop state has no cross-ring coupling, so modelling the
// whole ring in one deterministic Update keeps the event order exact
// without per-stop wires. It also implements traffic.Port for the
// generators of the connections it carries.
type ring struct {
	name string
	net  *Network
	S    int

	stops []*stop
	pos   map[topology.NodeID]int // stop position of each NI on this ring
	// wheel[sid] is slot sid's entry. The wheel turns by index: after rot
	// flit cycles slot sid stands at stop (sid + rot) mod S.
	wheel []entry
	rot   int
	owner []*connInfo // slot id -> owning connection, nil when free
	conns []*connInfo // carried connections, ascending id
	// visits[rot] is what the flit cycle at rotation rot can do (see the
	// package comment, "Visit table").
	visits [][]visit

	// The word within the flit at the last Update, and what it was derived for.
	word       int
	nextEdge   clock.Time
	edgePeriod clock.Duration
}

// A visit is one meeting of an owned slot with its owner's destination stop
// (eject) or source stop.
type visit struct {
	ci    *connInfo
	sid   int
	eject bool
}

// connInfo is everything the overlay derived for one connection.
type connInfo struct {
	spec    spec.Connection
	ring    *ring
	srcPos  int
	dstPos  int
	hops    int
	slotSet []int

	guaranteeMBps float64
	boundNs       float64

	// Source queue and destination-side measurements.
	q  []pending
	rx ni.ConnStats
}

// A Network is a built, runnable routerless overlay instance.
type Network struct {
	// Cfg is the shared parameter set; the overlay models its word width,
	// frequency and traffic model. Its bounds come from the analysis the
	// aelite mesh uses, under the same mode (Config.AnalysisMode): the
	// per-word bound for CBR load and the burst bound for transaction
	// drains (TestBoundsHoldForAnalysedShapes in internal/backend holds
	// runs of both to them).
	Cfg  core.Config
	Mesh *topology.Mesh
	Spec *spec.UseCase

	eng   *sim.Engine
	prog  *replay.Program // nil under Cfg.CycleAccurate
	base  *clock.Clock
	rings []*ring
	conns []*connInfo // ascending id
	gens  map[phit.ConnID]*traffic.Generator
}

// Engine exposes the simulation engine.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Replay returns the installed hyperperiod replay program, or nil under
// Config.CycleAccurate.
func (n *Network) Replay() *replay.Program { return n.prog }

// Rings returns the overlay's ring count.
func (n *Network) Rings() int { return len(n.rings) }

// Connections returns the ids of all connections, ascending.
func (n *Network) Connections() []phit.ConnID {
	out := make([]phit.ConnID, len(n.conns))
	for i, ci := range n.conns {
		out[i] = ci.spec.ID
	}
	return out
}

// find returns the connection with id c of conns, which ascend by id, or
// nil.
func find(conns []*connInfo, c phit.ConnID) *connInfo {
	if at, ok := slices.BinarySearchFunc(conns, c, byID); ok {
		return conns[at]
	}
	return nil
}

func byID(ci *connInfo, id phit.ConnID) int { return cmp.Compare(ci.spec.ID, id) }

// Generator returns a connection's traffic generator.
func (n *Network) Generator(c phit.ConnID) *traffic.Generator { return n.gens[c] }

// Info returns the allocation-derived facts of a connection in the
// shared core.ConnectionInfo shape (TotalShift, RecvCapacity and
// AckRTSlots stay zero: rings have no pipeline shift and no
// credit-managed receive queues).
func (n *Network) Info(c phit.ConnID) (core.ConnectionInfo, error) {
	ci := find(n.conns, c)
	if ci == nil {
		return core.ConnectionInfo{}, fmt.Errorf("routerless: unknown connection %d", c)
	}
	return core.ConnectionInfo{
		Conn:           c,
		SrcNI:          ci.ring.stops[ci.srcPos].ni,
		DstNI:          ci.ring.stops[ci.dstPos].ni,
		Slots:          append([]int(nil), ci.slotSet...),
		PathHops:       ci.hops,
		GuaranteedMBps: ci.guaranteeMBps,
		RequiredMBps:   ci.spec.BandwidthMBps,
		BoundNs:        ci.boundNs,
	}, nil
}

// Build assembles the ring overlay for the use case on the mesh: row and
// column rings plus (on 2-D meshes) a global snake ring, then assigns
// every connection to the shortest ring with free slot capacity. The use
// case must be validated and its IPs mapped, exactly as for core.Build,
// and is offered the same traffic (cfg.Traffic).
func Build(m *topology.Mesh, uc *spec.UseCase, cfg core.Config) (*Network, error) {
	cfg.ApplyDefaults()
	if err := uc.ValidateMapped(); err != nil {
		return nil, err
	}
	n := &Network{
		Cfg:  cfg,
		Mesh: m,
		Spec: uc,
		eng:  sim.New(),
		gens: make(map[phit.ConnID]*traffic.Generator),
	}
	n.base = clock.NewMHz("clk", cfg.FreqMHz, 0)
	n.buildRings()

	// Assign connections in id order: same inputs, same overlay.
	conns := append([]spec.Connection(nil), uc.Connections...)
	sort.Slice(conns, func(i, j int) bool { return conns[i].ID < conns[j].ID })
	for _, c := range conns {
		src, dst, err := uc.Endpoints(c)
		if err != nil {
			return nil, err
		}
		if src == dst {
			return nil, fmt.Errorf("routerless: connection %d: %w (NI %d)", c.ID, core.ErrSharedNI, src)
		}
		ci, err := n.place(c, src, dst)
		if err != nil {
			return nil, err
		}
		n.conns = append(n.conns, ci)
		ci.ring.conns = append(ci.ring.conns, ci)
	}

	// Components: rings first (index order), then generators (conn order)
	// — a fixed construction order keeps same-seed runs byte-identical.
	for _, r := range n.rings {
		r.buildVisits()
		n.eng.Add(r)
	}
	for _, ci := range n.conns {
		g := cfg.Traffic().Generator(n.base, ci.ring, ci.spec.ID, ci.spec.BandwidthMBps, len(n.gens))
		n.gens[ci.spec.ID] = g
		n.eng.Add(g)
	}
	if !cfg.CycleAccurate {
		n.prog = replay.Install(n.eng)
	}
	return n, nil
}

// buildRings lays the overlay: one ring per mesh row, one per column,
// and a boustrophedon snake ring over all NIs when the mesh is 2-D in
// both axes. Stops follow router order, each router contributing its NIs
// in index order.
func (n *Network) buildRings() {
	m := n.Mesh
	addRing := func(name string, nis []topology.NodeID) {
		r := &ring{
			name: name,
			net:  n,
			S:    len(nis),
			pos:  make(map[topology.NodeID]int),
		}
		r.stops = make([]*stop, r.S)
		r.wheel = make([]entry, r.S)
		r.owner = make([]*connInfo, r.S)
		for p, id := range nis {
			r.stops[p] = &stop{
				name: fmt.Sprintf("%s.s%d", name, p),
				pos:  p,
				ni:   id,
			}
			r.pos[id] = p
		}
		n.rings = append(n.rings, r)
	}
	for y := 0; y < m.Rows; y++ {
		var nis []topology.NodeID
		for x := 0; x < m.Cols; x++ {
			for k := 0; k < m.NIsPerRouter; k++ {
				nis = append(nis, m.NIAt(x, y, k))
			}
		}
		addRing(fmt.Sprintf("row%d", y), nis)
	}
	if m.Rows > 1 {
		for x := 0; x < m.Cols; x++ {
			var nis []topology.NodeID
			for y := 0; y < m.Rows; y++ {
				for k := 0; k < m.NIsPerRouter; k++ {
					nis = append(nis, m.NIAt(x, y, k))
				}
			}
			addRing(fmt.Sprintf("col%d", x), nis)
		}
	}
	if m.Rows > 1 && m.Cols > 1 {
		var nis []topology.NodeID
		for y := 0; y < m.Rows; y++ {
			for i := 0; i < m.Cols; i++ {
				x := i
				if y%2 == 1 {
					x = m.Cols - 1 - i
				}
				for k := 0; k < m.NIsPerRouter; k++ {
					nis = append(nis, m.NIAt(x, y, k))
				}
			}
		}
		addRing("snake", nis)
	}
}

// place assigns a connection to the shortest candidate ring with free
// slot capacity and picks its slot set.
func (n *Network) place(c spec.Connection, src, dst topology.NodeID) (*connInfo, error) {
	type candidate struct {
		r          *ring
		hops       int
		idx        int
		need       int
		srcP, dstP int
	}
	var cands []candidate
	for idx, r := range n.rings {
		sp, okS := r.pos[src]
		dp, okD := r.pos[dst]
		if !okS || !okD {
			continue
		}
		hops := ((dp-sp)%r.S + r.S) % r.S
		if hops == 0 {
			continue
		}
		need, err := analysis.SlotsForBandwidth(c.BandwidthMBps, n.Cfg.FreqMHz, n.Cfg.WordBytes, r.S, false)
		if err != nil {
			continue // rate exceeds this ring's capacity outright
		}
		cands = append(cands, candidate{r: r, hops: hops, idx: idx, need: need, srcP: sp, dstP: dp})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].hops != cands[j].hops {
			return cands[i].hops < cands[j].hops
		}
		return cands[i].idx < cands[j].idx
	})
	for _, cd := range cands {
		set := cd.r.takeSlots(cd.need)
		if set == nil {
			continue
		}
		// A ring is a slot table of S slots whose transit is one flit
		// cycle per segment: the mesh analysis with shift = hops.
		b := analysis.ConnectionBounds(cd.hops, set, cd.r.S, n.Cfg.FreqMHz, n.Cfg.WordBytes, n.Cfg.AnalysisMode(c.BandwidthMBps))
		ci := &connInfo{
			spec:          c,
			ring:          cd.r,
			srcPos:        cd.srcP,
			dstPos:        cd.dstP,
			hops:          cd.hops,
			slotSet:       set,
			guaranteeMBps: b.GuaranteeMBps,
			boundNs:       b.LatencyNs,
			q:             make([]pending, 0, SendCapacity),
		}
		for _, s := range set {
			cd.r.owner[s] = ci
		}
		return ci, nil
	}
	return nil, fmt.Errorf("routerless: connection %d (%.1f Mbyte/s) fits no ring: every candidate is out of slot capacity", c.ID, c.BandwidthMBps)
}

// takeSlots picks k free slots spread as evenly as the current occupancy
// allows (each even-spread target snaps to the nearest free slot,
// scanning forward), or nil when fewer than k slots are free.
func (r *ring) takeSlots(k int) []int {
	free := 0
	for _, ci := range r.owner {
		if ci == nil {
			free++
		}
	}
	if free < k {
		return nil
	}
	used := make([]bool, r.S)
	var set []int
	for _, target := range analysis.EvenSlots(k, r.S) {
		for off := 0; off < r.S; off++ {
			s := (target + off) % r.S
			if r.owner[s] == nil && !used[s] {
				used[s] = true
				set = append(set, s)
				break
			}
		}
	}
	sort.Ints(set)
	return set
}

// AreaUm2 estimates the overlay's silicon cost from the paper's area
// primitives: every stop carries one flit-wide ring register stage plus
// ejection control, and every sourced connection a send FIFO. There are
// no routers — that is the routerless trade: more link wiring, less
// switching logic.
func (n *Network) AreaUm2() float64 {
	wordBits := n.Cfg.WordBytes * 8
	var sum float64
	for _, r := range n.rings {
		sum += float64(r.S) * (area.LinkStageArea(wordBits, true) + area.ControlArea)
	}
	for range n.conns {
		sum += area.FIFOArea(SendCapacity, wordBits, true)
	}
	return sum
}
