package route

import (
	"fmt"
	"math"

	"repro/internal/topology"
)

// A Hop is one link of a path together with the TDM slot offset, relative
// to the injection slot, at which the flit enters that link.
type Hop struct {
	Link  topology.LinkID
	Shift uint16
}

// A Path is a source route from a source NI to a destination NI. It stores
// only what every candidate needs — the links and their shifts, in one
// backing array; the header's port sequence is derived by Ports for the
// paths a connection actually adopts.
type Path struct {
	Src, Dst topology.NodeID

	// Links lists the links traversed: NI->router, router->router...,
	// router->NI, each with its slot shift.
	Links []Hop

	// TotalShift is the slot offset at which the flit arrives at the
	// destination NI: the last link's entry shift plus its pipeline
	// stages.
	TotalShift int
}

// Hops returns the number of routers traversed.
func (p *Path) Hops() int { return max(len(p.Links)-1, 0) }

// Ports derives the output-port index consumed at each router along the
// way (Hops entries) — what the header encodes.
func (p *Path) Ports(g *topology.Graph) []int {
	ports := make([]int, p.Hops())
	for i := range ports {
		ports[i] = g.Link(p.Links[i+1].Link).FromPort
	}
	return ports
}

func (p *Path) String() string {
	return fmt.Sprintf("path(%d->%d, %d routers, shift %d)", p.Src, p.Dst, p.Hops(), p.TotalShift)
}

// newPath returns an empty path with room for exactly n links.
func newPath(src, dst topology.NodeID, n int) *Path {
	return &Path{Src: src, Dst: dst, Links: make([]Hop, 0, n)}
}

// extend appends link l. The flit enters the first link at shift 0 and
// every later one a slot after it left the previous: one slot for the
// router's flit cycle plus one per pipeline stage of the link behind it.
// TotalShift is kept as the arrival offset of the path so far.
func (p *Path) extend(l topology.Link) {
	shift := 0
	if len(p.Links) > 0 {
		shift = p.TotalShift + 1
	}
	p.Links = append(p.Links, Hop{Link: l.ID, Shift: uint16(shift)})
	p.TotalShift = shift + l.PipelineStages
}

// finished returns the completed path, or an error when its shifts do not
// fit a Hop. Shifts grow along the path, so the arrival offset bounds them
// all.
func (p *Path) finished() (*Path, error) {
	if p.TotalShift > math.MaxUint16 {
		return nil, fmt.Errorf("route: path shift %d exceeds the %d a hop can record", p.TotalShift, math.MaxUint16)
	}
	return p, nil
}

// endpoints checks that src and dst are two distinct NIs.
func endpoints(g *topology.Graph, src, dst topology.NodeID) (s, d topology.Node, err error) {
	s, d = g.Node(src), g.Node(dst)
	if s.Kind != topology.NI || d.Kind != topology.NI {
		return s, d, fmt.Errorf("route: endpoints must be NIs (got %s, %s)", s.Kind, d.Kind)
	}
	if src == dst {
		return s, d, fmt.Errorf("route: source and destination NI are the same (%s)", s.Name)
	}
	return s, d, nil
}

// A leg is a straight run of n hops out of the same mesh port.
type leg struct{ port, n int }

// xLeg and yLeg are the straight runs from one mesh coordinate to another.
// East increases x, South increases y.
func xLeg(from, to int) leg {
	if to >= from {
		return leg{topology.East, to - from}
	}
	return leg{topology.West, from - to}
}

func yLeg(from, to int) leg {
	if to >= from {
		return leg{topology.South, to - from}
	}
	return leg{topology.North, from - to}
}

// walk builds the route that leaves s, runs the legs in order from s's
// router and enters d. The legs must end at d's router.
func walk(m *topology.Mesh, s, d topology.Node, legs [3]leg) (*Path, error) {
	niLink := m.InLink(d.ID, 0)
	if niLink == topology.Invalid {
		return nil, fmt.Errorf("route: NI %s has no input link", d.Name)
	}
	p := newPath(s.ID, d.ID, legs[0].n+legs[1].n+legs[2].n+2)
	p.extend(m.Link(m.OutLink(s.ID, 0)))
	cur := s.Router
	for _, lg := range legs {
		for i := 0; i < lg.n; i++ {
			lid := m.OutLink(cur, lg.port)
			if lid == topology.Invalid {
				return nil, fmt.Errorf("route: %s has no link on port %d", m.Node(cur).Name, lg.port)
			}
			l := m.Link(lid)
			p.extend(l)
			cur = l.To
		}
	}
	last := m.Link(niLink)
	if last.From != cur {
		return nil, fmt.Errorf("route: walk ended at %s, but %s attaches to %s",
			m.Node(cur).Name, d.Name, m.Node(last.From).Name)
	}
	p.extend(last)
	return p.finished()
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
	s, d, err := endpoints(m.Graph, src, dst)
	if err != nil {
		return nil, err
	}
	sr, dr := m.Node(s.Router), m.Node(d.Router)
	x, y := xLeg(sr.X, dr.X), yLeg(sr.Y, dr.Y)
	if xFirst {
		return walk(m, s, d, [3]leg{x, y})
	}
	return walk(m, s, d, [3]leg{y, x})
}

// BFS computes a minimal-hop route between two NIs on an arbitrary graph.
// Ties are broken by link id, so the result is deterministic.
func BFS(g *topology.Graph, src, dst topology.NodeID) (*Path, error) {
	s, d, err := endpoints(g, src, dst)
	if err != nil {
		return nil, err
	}
	// Breadth-first search over nodes, tracking the inbound link.
	prev := make([]topology.LinkID, g.NumNodes())
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
	// prev walks the route backwards; shifts accumulate forwards.
	var rev []topology.LinkID
	for n := dst; n != src; n = g.Link(prev[n]).From {
		rev = append(rev, prev[n])
	}
	p := newPath(src, dst, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		p.extend(g.Link(rev[i]))
	}
	return p.finished()
}

// Validate checks that a path is well-formed over the given graph:
// contiguous links through routers, NI endpoints, and the shifts of the
// package's convention.
func Validate(g *topology.Graph, p *Path) error {
	if len(p.Links) < 2 {
		return fmt.Errorf("route: path needs at least 2 links, has %d", len(p.Links))
	}
	first, last := g.Link(p.Links[0].Link), g.Link(p.Links[len(p.Links)-1].Link)
	if first.From != p.Src {
		return fmt.Errorf("route: path starts at node %d, want src %d", first.From, p.Src)
	}
	if last.To != p.Dst {
		return fmt.Errorf("route: path ends at node %d, want dst %d", last.To, p.Dst)
	}
	for i := 1; i < len(p.Links); i++ {
		a, b := g.Link(p.Links[i-1].Link), g.Link(p.Links[i].Link)
		if a.To != b.From {
			return fmt.Errorf("route: links %d and %d are not contiguous", a.ID, b.ID)
		}
		if g.Node(a.To).Kind != topology.Router {
			return fmt.Errorf("route: intermediate node %s is not a router", g.Node(a.To).Name)
		}
	}
	shift, arrival := 0, 0
	for _, h := range p.Links {
		if int(h.Shift) != shift {
			return fmt.Errorf("route: link %d is entered at shift %d, the links before it give %d", h.Link, h.Shift, shift)
		}
		arrival = shift + g.Link(h.Link).PipelineStages
		shift = arrival + 1
	}
	if p.TotalShift != arrival {
		return fmt.Errorf("route: total shift %d, the links give %d", p.TotalShift, arrival)
	}
	return nil
}
