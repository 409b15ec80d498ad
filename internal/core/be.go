package core

import (
	"fmt"
	"sort"

	"repro/internal/aethereal"
	"repro/internal/clock"
	"repro/internal/ni"
	"repro/internal/phit"
	"repro/internal/replay"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

type beConnInfo struct {
	spec  spec.Connection
	srcNI topology.NodeID
	dstNI topology.NodeID
	path  *route.Path
}

// A BENetwork is a built best-effort baseline instance (paper Section VII:
// same mapping and paths, all connections changed from GS to BE, globally
// synchronous).
type BENetwork struct {
	Cfg  Config
	Mesh *topology.Mesh
	Spec *spec.UseCase

	eng     *sim.Engine
	base    *clock.Clock
	data    map[topology.LinkID]*sim.Wire[phit.Phit]
	credit  map[topology.LinkID]*sim.Wire[int]
	nis     map[topology.NodeID]*aethereal.NI
	routers map[topology.NodeID]*aethereal.Router
	gens    map[phit.ConnID]*traffic.Generator
	conns   []*beConnInfo   // ascending id
	prog    *replay.Program // nil under Cfg.CycleAccurate
}

// Engine exposes the simulation engine.
func (n *BENetwork) Engine() *sim.Engine { return n.eng }

// Replay returns the installed hyperperiod replay program, or nil under
// Config.CycleAccurate.
func (n *BENetwork) Replay() *replay.Program { return n.prog }

// Generator returns a connection's traffic generator.
func (n *BENetwork) Generator(c phit.ConnID) *traffic.Generator { return n.gens[c] }

// AttachTracer installs bus as the BE network's event bus and hands every
// NI its emitter (the BE NI emits the Inject/Send/Eject word lifecycle;
// wormhole routers have no TDM slots to trace). Component names are
// interned in mesh NI order, so the same build gets the same component
// ids and a byte-identical same-seed event stream. Passing a nil bus
// detaches everything.
func (n *BENetwork) AttachTracer(bus *trace.Bus) {
	n.eng.SetTracer(bus)
	for _, id := range n.Mesh.AllNIs() {
		if c := n.nis[id]; c != nil {
			if bus == nil {
				c.SetTracer(nil)
			} else {
				c.SetTracer(bus.Emitter(c.Name()))
			}
		}
	}
}

// BuildBE assembles the best-effort baseline: same mesh, same IP mapping,
// same XY paths as the aelite network, but wormhole BE routers and NIs
// (aethereal.DefaultBufferWords deep, packets of at most
// aethereal.DefaultMaxPacketWords). Of cfg it takes the layout, the word
// width, the frequency, the traffic model and CycleAccurate: unless that is
// set, a hyperperiod replay program is installed. The Æthereal baseline is
// globally synchronous, so BuildBE strips the mesh of pipeline stages.
func BuildBE(m *topology.Mesh, uc *spec.UseCase, cfg Config) (*BENetwork, error) {
	cfg.ApplyDefaults()
	if err := uc.ValidateMapped(); err != nil {
		return nil, err
	}
	m.SetAllPipelineStages(0)
	n := &BENetwork{
		Cfg:     cfg,
		Mesh:    m,
		Spec:    uc,
		eng:     sim.New(),
		nis:     make(map[topology.NodeID]*aethereal.NI),
		routers: make(map[topology.NodeID]*aethereal.Router),
		gens:    make(map[phit.ConnID]*traffic.Generator),
	}
	n.base = clock.NewMHz("clk", cfg.FreqMHz, 0)

	for _, c := range uc.Connections {
		src, dst, err := uc.Endpoints(c)
		if err != nil {
			return nil, err
		}
		if src == dst {
			return nil, fmt.Errorf("core: connection %d: %w (NI %d)", c.ID, ErrSharedNI, src)
		}
		p, err := route.XY(m, src, dst)
		if err != nil {
			return nil, err
		}
		n.conns = append(n.conns, &beConnInfo{spec: c, srcNI: src, dstNI: dst, path: p})
	}
	// Id order: queue ids, generator staggers and the report follow it.
	sort.Slice(n.conns, func(i, j int) bool { return n.conns[i].spec.ID < n.conns[j].spec.ID })

	// Wires: per link a data wire and a reverse credit wire, driven on a
	// change only (see package aethereal): not to be intercepted.
	data := make(map[topology.LinkID]*sim.Wire[phit.Phit])
	credit := make(map[topology.LinkID]*sim.Wire[int])
	n.data, n.credit = data, credit
	for _, l := range m.Links() {
		dn := fmt.Sprintf("l%d.data", l.ID)
		cn := fmt.Sprintf("l%d.credit", l.ID)
		data[l.ID] = sim.NewWire[phit.Phit](dn)
		credit[l.ID] = sim.NewWire[int](cn)
		n.eng.AddWire(data[l.ID])
		n.eng.AddWire(credit[l.ID])
	}

	// Routers.
	for _, r := range m.Routers() {
		node := m.Node(r)
		rc := aethereal.NewRouter(node.Name, node.Ports, cfg.Layout, n.base, aethereal.DefaultBufferWords)
		for p := 0; p < node.Ports; p++ {
			if l := m.InLink(r, p); l != topology.Invalid {
				rc.ConnectIn(p, data[l], credit[l])
			}
			if l := m.OutLink(r, p); l != topology.Invalid {
				// Downstream buffer depth: routers buffer
				// DefaultBufferWords; NIs drain at line rate and
				// are given the same credit window.
				rc.ConnectOut(p, data[l], credit[l], aethereal.DefaultBufferWords)
			}
		}
		n.routers[r] = rc
		n.eng.Add(rc)
	}

	// NIs.
	for _, id := range m.AllNIs() {
		node := m.Node(id)
		inL := m.InLink(id, 0)
		outL := m.OutLink(id, 0)
		c := aethereal.NewNI(node.Name, n.base, cfg.Layout,
			data[inL], data[outL], credit[outL], credit[inL],
			aethereal.DefaultBufferWords, aethereal.DefaultMaxPacketWords)
		n.nis[id] = c
		n.eng.Add(c)
	}

	// Connections and generators.
	qidNext := make(map[topology.NodeID]int)
	for _, info := range n.conns {
		id := info.spec.ID
		qid := qidNext[info.dstNI]
		qidNext[info.dstNI]++
		if qid > cfg.Layout.MaxQID() {
			return nil, fmt.Errorf("core: BE NI queue ids exhausted at NI %d", info.dstNI)
		}
		hdr, err := cfg.Layout.Encode(info.path.Ports(m.Graph), qid, 0)
		if err != nil {
			return nil, fmt.Errorf("core: connection %d header: %w", id, err)
		}
		n.nis[info.srcNI].AddOutConn(aethereal.OutConnConfig{ID: id, Header: hdr})
		n.nis[info.dstNI].AddInConn(aethereal.InConnConfig{ID: id, QID: qid})

		g := cfg.Traffic().Generator(n.base, n.nis[info.srcNI], id, info.spec.BandwidthMBps, len(n.gens))
		n.gens[id] = g
		n.eng.Add(g)
	}
	if !cfg.CycleAccurate {
		n.prog = replay.Install(n.eng)
	}
	return n, nil
}

// Run simulates warm-up, clears statistics, measures, and reports.
// Guarantee fields are zero: best effort has none — that is the point.
func (n *BENetwork) Run(warmupNs, measureNs float64) *Report {
	OpenWindow(n.eng, warmupNs, measureNs, func() {
		for _, id := range n.Mesh.AllNIs() {
			n.nis[id].ResetStats()
		}
	})(measureNs)

	head := Report{
		Name:       n.Spec.Name,
		FreqMHz:    n.Cfg.FreqMHz,
		Mode:       "best-effort",
		MeasureNs:  measureNs,
		TotalEdges: n.eng.Edges(),
	}
	return NewReport(head, n.Cfg.WordBytes, false, len(n.conns), func(i int) (spec.Connection, ConnectionInfo, *ni.ConnStats) {
		info := n.conns[i]
		return info.spec, ConnectionInfo{PathHops: info.path.Hops()}, n.nis[info.dstNI].InStats(info.spec.ID)
	})
}
