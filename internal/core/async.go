package core

import (
	"fmt"
	"math/rand"

	"repro/internal/clock"
	"repro/internal/ni"
	"repro/internal/router"
	"repro/internal/topology"
	"repro/internal/wrapper"
)

// instantiateAsync builds the plesiochronous network of paper Section VI:
// every router and NI runs on its own clock inside an asynchronous
// wrapper, and every link is a primed token channel. Connections attach
// afterwards, exactly as on the clocked fabric.
func (n *Network) instantiateAsync() {
	period := clock.PeriodFromMHz(n.Cfg.FreqMHz)
	n.base = clock.New("clk", period, 0)
	rng := rand.New(rand.NewSource(n.Cfg.PhaseSeed))

	// Per-node plesiochronous clocks: frequency off by up to ±PPM, and
	// an arbitrary phase within one period.
	nodeClk := n.domains // every node is its own clock domain
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
		c := ni.New(node.Name, nodeClk[id], n.Cfg.Layout, n.niTables[id], nil, nil)
		c.SetReporter(n.Cfg.FaultReporter)
		n.nis[id] = c
		w := wrapper.New("wrap."+node.Name, nodeClk[id], wrapper.NewNIActor(c))
		w.SetReporter(n.Cfg.FaultReporter)
		w.ConnectIn(0, chans[n.Mesh.InLink(id, 0)])
		w.ConnectOut(0, chans[n.Mesh.OutLink(id, 0)])
		n.wrappers = append(n.wrappers, w)
		n.eng.Add(w)
	}
}
