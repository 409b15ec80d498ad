package route

import (
	"fmt"

	"repro/internal/topology"
)

// A Path is a source route from a source NI to a destination NI.
type Path struct {
	Src, Dst topology.NodeID

	// Links lists the links traversed: NI->router, router->router...,
	// router->NI.
	Links []topology.LinkID

	// Ports lists the output-port index consumed at each router along
	// the way (len(Links)-1 entries); this is what the header encodes.
	Ports []int

	// Shift lists, per link, the TDM slot offset relative to the
	// injection slot at which the flit enters that link.
	Shift []int

	// TotalShift is the slot offset at which the flit arrives at the
	// destination NI: the last link's entry shift plus its pipeline
	// stages.
	TotalShift int
}

// Hops returns the number of routers traversed.
func (p *Path) Hops() int { return len(p.Ports) }

func (p *Path) String() string {
	return fmt.Sprintf("path(%d->%d, %d routers, shift %d)", p.Src, p.Dst, p.Hops(), p.TotalShift)
}

// finish derives Ports, Shift and TotalShift from Links.
func finish(g *topology.Graph, p *Path) *Path {
	p.Ports = make([]int, 0, len(p.Links)-1)
	p.Shift = make([]int, len(p.Links))
	shift := 0
	for i, lid := range p.Links {
		l := g.Link(lid)
		if i > 0 {
			p.Ports = append(p.Ports, l.FromPort)
		}
		p.Shift[i] = shift
		shift += 1 + l.PipelineStages // router flit cycle + pipeline stages
	}
	// The final "+1" counted the destination NI as if it were a router
	// hop; arrival happens when the flit exits the last link's pipeline.
	last := g.Link(p.Links[len(p.Links)-1])
	p.TotalShift = p.Shift[len(p.Links)-1] + last.PipelineStages
	return p
}

// XY computes the dimension-ordered route (X first, then Y) between two
// NIs on a mesh. It is deterministic and deadlock-free, and is the routing
// used for the paper's Section VII experiment.
func XY(m *topology.Mesh, src, dst topology.NodeID) (*Path, error) {
	return dimensionOrder(m, src, dst, true)
}

// YX computes the Y-first dimension-ordered route; together with XY it
// gives the allocator a fallback path when slots on the XY route are
// exhausted.
func YX(m *topology.Mesh, src, dst topology.NodeID) (*Path, error) {
	return dimensionOrder(m, src, dst, false)
}

func dimensionOrder(m *topology.Mesh, src, dst topology.NodeID, xFirst bool) (*Path, error) {
	s, d := m.Node(src), m.Node(dst)
	if s.Kind != topology.NI || d.Kind != topology.NI {
		return nil, fmt.Errorf("route: endpoints must be NIs (got %s, %s)", s.Kind, d.Kind)
	}
	if src == dst {
		return nil, fmt.Errorf("route: source and destination NI are the same (%s)", s.Name)
	}
	p := &Path{Src: src, Dst: dst}
	p.Links = append(p.Links, m.OutLink(src, 0))

	cur := s.Router
	target := d.Router
	step := func(port int) error {
		l := m.OutLink(cur, port)
		if l == topology.Invalid {
			return fmt.Errorf("route: %s has no link on port %d", m.Node(cur).Name, port)
		}
		p.Links = append(p.Links, l)
		cur = m.Link(l).To
		return nil
	}
	moveX := func() error {
		for m.Node(cur).X != m.Node(target).X {
			port := topology.East
			if m.Node(cur).X > m.Node(target).X {
				port = topology.West
			}
			if err := step(port); err != nil {
				return err
			}
		}
		return nil
	}
	moveY := func() error {
		for m.Node(cur).Y != m.Node(target).Y {
			port := topology.South
			if m.Node(cur).Y > m.Node(target).Y {
				port = topology.North
			}
			if err := step(port); err != nil {
				return err
			}
		}
		return nil
	}
	var err error
	if xFirst {
		err = moveX()
		if err == nil {
			err = moveY()
		}
	} else {
		err = moveY()
		if err == nil {
			err = moveX()
		}
	}
	if err != nil {
		return nil, err
	}
	// Final hop: router port to the destination NI.
	niLink := m.InLink(dst, 0)
	if niLink == topology.Invalid {
		return nil, fmt.Errorf("route: NI %s has no input link", d.Name)
	}
	l := m.Link(niLink)
	if l.From != cur {
		return nil, fmt.Errorf("route: dimension-order route ended at %s, but %s attaches to %s",
			m.Node(cur).Name, d.Name, m.Node(l.From).Name)
	}
	p.Links = append(p.Links, niLink)
	return finish(m.Graph, p), nil
}

// BFS computes a minimal-hop route between two NIs on an arbitrary graph.
// Ties are broken by link id, so the result is deterministic.
func BFS(g *topology.Graph, src, dst topology.NodeID) (*Path, error) {
	s, d := g.Node(src), g.Node(dst)
	if s.Kind != topology.NI || d.Kind != topology.NI {
		return nil, fmt.Errorf("route: endpoints must be NIs (got %s, %s)", s.Kind, d.Kind)
	}
	if src == dst {
		return nil, fmt.Errorf("route: source and destination NI are the same (%s)", s.Name)
	}
	// Breadth-first search over nodes, tracking the inbound link.
	prev := make(map[topology.NodeID]topology.LinkID, g.NumNodes())
	visited := make([]bool, g.NumNodes())
	visited[src] = true
	queue := []topology.NodeID{src}
	for len(queue) > 0 && !visited[dst] {
		n := queue[0]
		queue = queue[1:]
		node := g.Node(n)
		// NIs other than src/dst do not forward traffic.
		if node.Kind == topology.NI && n != src {
			continue
		}
		for port := 0; port < node.Ports; port++ {
			lid := g.OutLink(n, port)
			if lid == topology.Invalid {
				continue
			}
			to := g.Link(lid).To
			if !visited[to] {
				visited[to] = true
				prev[to] = lid
				queue = append(queue, to)
			}
		}
	}
	if !visited[dst] {
		return nil, fmt.Errorf("route: no path from %s to %s", s.Name, d.Name)
	}
	var rev []topology.LinkID
	for n := dst; n != src; {
		l := prev[n]
		rev = append(rev, l)
		n = g.Link(l).From
	}
	p := &Path{Src: src, Dst: dst}
	for i := len(rev) - 1; i >= 0; i-- {
		p.Links = append(p.Links, rev[i])
	}
	return finish(g, p), nil
}

// Validate checks that a path is well-formed over the given graph:
// contiguous links, NI endpoints, and ports matching the links.
func Validate(g *topology.Graph, p *Path) error {
	if len(p.Links) < 2 {
		return fmt.Errorf("route: path needs at least 2 links, has %d", len(p.Links))
	}
	first, last := g.Link(p.Links[0]), g.Link(p.Links[len(p.Links)-1])
	if first.From != p.Src {
		return fmt.Errorf("route: path starts at node %d, want src %d", first.From, p.Src)
	}
	if last.To != p.Dst {
		return fmt.Errorf("route: path ends at node %d, want dst %d", last.To, p.Dst)
	}
	for i := 1; i < len(p.Links); i++ {
		a, b := g.Link(p.Links[i-1]), g.Link(p.Links[i])
		if a.To != b.From {
			return fmt.Errorf("route: links %d and %d are not contiguous", a.ID, b.ID)
		}
		if g.Node(a.To).Kind != topology.Router {
			return fmt.Errorf("route: intermediate node %s is not a router", g.Node(a.To).Name)
		}
		if p.Ports[i-1] != b.FromPort {
			return fmt.Errorf("route: port %d at hop %d does not match link port %d",
				p.Ports[i-1], i-1, b.FromPort)
		}
	}
	return nil
}
