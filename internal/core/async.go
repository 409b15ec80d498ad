package core

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/clock"
	"repro/internal/ni"
	"repro/internal/phit"
	"repro/internal/router"
	"repro/internal/topology"
	"repro/internal/wrapper"
)

// instantiateAsync builds the plesiochronous network of paper Section VI:
// every router and NI runs on its own clock inside an asynchronous
// wrapper, and every link is a primed token channel.
func (n *Network) instantiateAsync() error {
	period := clock.PeriodFromMHz(n.Cfg.FreqMHz)
	n.base = clock.New("clk", period, 0)
	rng := rand.New(rand.NewSource(n.Cfg.PhaseSeed))

	// Per-node plesiochronous clocks: frequency off by up to ±PPM, and
	// an arbitrary phase within one period.
	nodeClk := make(map[topology.NodeID]*clock.Clock)
	for _, node := range n.Mesh.Nodes() {
		ppm := 0.0
		if n.Cfg.PPM > 0 {
			ppm = (2*rng.Float64() - 1) * n.Cfg.PPM
		}
		nodeClk[node.ID] = clock.Plesiochronous(n.base, "clk."+node.Name, ppm,
			clock.Duration(rng.Int63n(int64(period))))
		n.faultClks = append(n.faultClks, nodeClk[node.ID])
	}

	// Token channels per link. Transfer delay: the 2-cycle registered
	// fire plus synchronisation, in nominal time.
	chans := make(map[topology.LinkID]*wrapper.Channel)
	for _, l := range n.Mesh.Links() {
		if l.PipelineStages != wrapper.InitialTokens-1 {
			return fmt.Errorf("core: link %d has %d pipeline stages; asynchronous mode requires %d on every link (call PrepareTopology before Build)",
				l.ID, l.PipelineStages, wrapper.InitialTokens-1)
		}
		name := fmt.Sprintf("ch%d.%s>%s", l.ID, n.Mesh.Node(l.From).Name, n.Mesh.Node(l.To).Name)
		chans[l.ID] = wrapper.NewChannel(name, 2*period)
	}

	// Wrapped routers.
	for _, r := range n.Mesh.Routers() {
		node := n.Mesh.Node(r)
		core := router.NewCore(node.Name, node.Ports, n.Cfg.Layout)
		core.SetReporter(n.Cfg.FaultReporter)
		w := wrapper.New("wrap."+node.Name, nodeClk[r], wrapper.NewRouterActor(core))
		w.SetReporter(n.Cfg.FaultReporter)
		for p := 0; p < node.Ports; p++ {
			if l := n.Mesh.InLink(r, p); l != topology.Invalid {
				w.ConnectIn(p, chans[l])
			}
			if l := n.Mesh.OutLink(r, p); l != topology.Invalid {
				w.ConnectOut(p, chans[l])
			}
		}
		n.wrappers = append(n.wrappers, w)
		n.eng.Add(w)
	}

	// Wrapped NIs.
	for _, id := range n.Mesh.AllNIs() {
		node := n.Mesh.Node(id)
		table := n.Alloc.NITable(id)
		n.niTables[id] = table
		c := ni.New(node.Name, nodeClk[id], n.Cfg.Layout, table, nil, nil)
		c.SetReporter(n.Cfg.FaultReporter)
		n.nis[id] = c
		w := wrapper.New("wrap."+node.Name, nodeClk[id], wrapper.NewNIActor(c))
		w.SetReporter(n.Cfg.FaultReporter)
		w.ConnectIn(0, chans[n.Mesh.InLink(id, 0)])
		w.ConnectOut(0, chans[n.Mesh.OutLink(id, 0)])
		n.wrappers = append(n.wrappers, w)
		n.eng.Add(w)
	}

	for id, ck := range nodeClk {
		n.domains[id] = ck
	}
	// Connections and generators (identical bookkeeping to the
	// synchronous path).
	qidNext := n.qidNext
	ids := make([]phit.ConnID, 0, len(n.conns))
	for id := range n.conns {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		info := n.conns[id]
		dataQID := qidNext[info.dstNI]
		qidNext[info.dstNI]++
		revQID := qidNext[info.srcNI]
		qidNext[info.srcNI]++
		if dataQID > n.Cfg.Layout.MaxQID() || revQID > n.Cfg.Layout.MaxQID() {
			return fmt.Errorf("core: NI queue ids exhausted (layout allows %d queues per NI)", n.Cfg.Layout.MaxQID()+1)
		}
		dataHdrs, err := slotHeaders(n.Cfg.Layout, n.Alloc.ByConn[id], dataQID)
		if err != nil {
			return fmt.Errorf("core: connection %d header: %w", id, err)
		}
		revHdrs, err := slotHeaders(n.Cfg.Layout, n.Alloc.ByConn[info.rev], revQID)
		if err != nil {
			return fmt.Errorf("core: connection %d reverse header: %w", id, err)
		}
		src, dst := n.nis[info.srcNI], n.nis[info.dstNI]
		src.AddOutConn(ni.OutConnConfig{ID: id, Headers: dataHdrs, InitialCredits: info.recvCap, PairedIn: info.rev})
		dst.AddInConn(ni.InConnConfig{ID: id, QID: dataQID, RecvCapacity: info.recvCap, CreditFor: info.rev, AutoDrain: true})
		dst.AddOutConn(ni.OutConnConfig{ID: info.rev, Headers: revHdrs, InitialCredits: 0, PairedIn: id})
		src.AddInConn(ni.InConnConfig{ID: info.rev, QID: revQID, RecvCapacity: 0, CreditFor: id, AutoDrain: true})

		g := buildGenerator(n.Cfg, info, nodeClk[info.srcNI], src, len(n.gens))
		n.gens[id] = g
		n.eng.Add(g)
	}
	n.wireReliable()
	return nil
}
