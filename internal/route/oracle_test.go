package route

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/topology"
)

// The reference below is the route package as it stood before paths became
// compact: an eager finish deriving Ports and []int shifts for every path,
// closures walking the mesh, Links regrown by append. It is kept verbatim
// (identifiers prefixed ref) as the oracle for TestPathsMatchReference.

// A refPath is a source route from a source NI to a destination NI.
type refPath struct {
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

// refFinish derives Ports, Shift and TotalShift from Links.
func refFinish(g *topology.Graph, p *refPath) *refPath {
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

// refXY computes the dimension-ordered route (X first, then Y) between two
// NIs on a mesh. It is deterministic and deadlock-free, and is the routing
// used for the paper's Section VII experiment.
func refXY(m *topology.Mesh, src, dst topology.NodeID) (*refPath, error) {
	return refDimensionOrder(m, src, dst, true)
}

// refYX computes the Y-first dimension-ordered route; together with refXY it
// gives the allocator a fallback path when slots on the refXY route are
// exhausted.
func refYX(m *topology.Mesh, src, dst topology.NodeID) (*refPath, error) {
	return refDimensionOrder(m, src, dst, false)
}

func refDimensionOrder(m *topology.Mesh, src, dst topology.NodeID, xFirst bool) (*refPath, error) {
	s, d := m.Node(src), m.Node(dst)
	if s.Kind != topology.NI || d.Kind != topology.NI {
		return nil, fmt.Errorf("route: endpoints must be NIs (got %s, %s)", s.Kind, d.Kind)
	}
	if src == dst {
		return nil, fmt.Errorf("route: source and destination NI are the same (%s)", s.Name)
	}
	p := &refPath{Src: src, Dst: dst}
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
	return refFinish(m.Graph, p), nil
}

// refBFS computes a minimal-hop route between two NIs on an arbitrary graph.
// Ties are broken by link id, so the result is deterministic.
func refBFS(g *topology.Graph, src, dst topology.NodeID) (*refPath, error) {
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
	p := &refPath{Src: src, Dst: dst}
	for i := len(rev) - 1; i >= 0; i-- {
		p.Links = append(p.Links, rev[i])
	}
	return refFinish(g, p), nil
}

// refStaircase computes a minimal route that travels turnAfter hops in the X
// dimension, then all of Y, then the remaining X — a family that
// interpolates between refXY (turnAfter = full X distance) and refYX
// (turnAfter = 0). All staircase routes are minimal; offering several to
// the slot allocator defeats the alignment fragmentation that a single
// dimension-ordered path suffers on loaded meshes.
//
// Note: unlike pure refXY/refYX, mixed staircases are not deadlock-free under
// wormhole routing — but aelite needs no such guarantee: contention-free
// TDM never blocks in-network, so any minimal route is safe (one more
// freedom the GS-only architecture buys).
func refStaircase(m *topology.Mesh, src, dst topology.NodeID, turnAfter int) (*refPath, error) {
	s, d := m.Node(src), m.Node(dst)
	if s.Kind != topology.NI || d.Kind != topology.NI {
		return nil, fmt.Errorf("route: endpoints must be NIs (got %s, %s)", s.Kind, d.Kind)
	}
	if src == dst {
		return nil, fmt.Errorf("route: source and destination NI are the same (%s)", s.Name)
	}
	// A minimal route crosses the Manhattan distance between the routers
	// plus the two NI links.
	sr, dr := m.Node(s.Router), m.Node(d.Router)
	p := &refPath{Src: src, Dst: dst, Links: make([]topology.LinkID, 0, refAbs(sr.X-dr.X)+refAbs(sr.Y-dr.Y)+2)}
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
	xPort := func() int {
		if m.Node(cur).X < m.Node(target).X {
			return topology.East
		}
		return topology.West
	}
	yPort := func() int {
		if m.Node(cur).Y < m.Node(target).Y {
			return topology.South
		}
		return topology.North
	}
	for i := 0; i < turnAfter && m.Node(cur).X != m.Node(target).X; i++ {
		if err := step(xPort()); err != nil {
			return nil, err
		}
	}
	for m.Node(cur).Y != m.Node(target).Y {
		if err := step(yPort()); err != nil {
			return nil, err
		}
	}
	for m.Node(cur).X != m.Node(target).X {
		if err := step(xPort()); err != nil {
			return nil, err
		}
	}
	niLink := m.InLink(dst, 0)
	l := m.Link(niLink)
	if l.From != cur {
		return nil, fmt.Errorf("route: staircase ended at %s, but %s attaches to %s",
			m.Node(cur).Name, d.Name, m.Node(l.From).Name)
	}
	p.Links = append(p.Links, niLink)
	return refFinish(m.Graph, p), nil
}

// refDetour computes a non-minimal route that first side-steps one hop
// through firstPort (any mesh direction), then routes dimension-ordered
// to the destination — Y-first after an X side-step, X-first after a Y
// side-step, so the side-step is not immediately undone. Detours rescue
// connections whose only minimal route crosses a saturated link —
// harmless in aelite because contention-free TDM cannot deadlock, at the
// price of two extra slots of shift.
func refDetour(m *topology.Mesh, src, dst topology.NodeID, firstPort int) (*refPath, error) {
	s, d := m.Node(src), m.Node(dst)
	if s.Kind != topology.NI || d.Kind != topology.NI {
		return nil, fmt.Errorf("route: endpoints must be NIs (got %s, %s)", s.Kind, d.Kind)
	}
	if src == dst {
		return nil, fmt.Errorf("route: source and destination NI are the same (%s)", s.Name)
	}
	if firstPort < topology.North || firstPort > topology.West {
		return nil, fmt.Errorf("route: detour side must be a mesh direction")
	}
	if s.Router == d.Router {
		return nil, fmt.Errorf("route: detour between NIs on one router is pointless")
	}
	p := &refPath{Src: src, Dst: dst}
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
	if err := step(firstPort); err != nil {
		return nil, err
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
	if firstPort == topology.East || firstPort == topology.West {
		if err = moveY(); err == nil {
			err = moveX()
		}
	} else {
		if err = moveX(); err == nil {
			err = moveY()
		}
	}
	if err != nil {
		return nil, err
	}
	niLink := m.InLink(dst, 0)
	if m.Link(niLink).From != cur {
		return nil, fmt.Errorf("route: detour did not reach %s", d.Name)
	}
	p.Links = append(p.Links, niLink)
	return refFinish(m.Graph, p), nil
}

func refAbs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// refCandidates returns up to max distinct routes between two NIs: every
// minimal staircase (refXY towards refYX), followed by one-hop X side-step
// detours when the minimal family is smaller than max. Duplicate link
// sequences (straight-line routes have only one minimal path) are
// collapsed.
func refCandidates(m *topology.Mesh, src, dst topology.NodeID, max int) ([]*refPath, error) {
	if max < 1 {
		max = 1
	}
	sr := m.Node(m.Node(src).Router)
	dr := m.Node(m.Node(dst).Router)
	dx := refAbs(sr.X - dr.X)
	var out []*refPath
	// A handful of candidates at most, so de-duplicate by comparing link
	// sequences directly.
	add := func(p *refPath) {
		for _, q := range out {
			if slices.Equal(q.Links, p.Links) {
				return
			}
		}
		out = append(out, p)
	}
	for turn := dx; turn >= 0 && len(out) < max; turn-- {
		p, err := refStaircase(m, src, dst, turn)
		if err != nil {
			return nil, err
		}
		add(p)
	}
	if len(out) < max && sr.ID != dr.ID {
		for _, side := range []int{topology.East, topology.West, topology.North, topology.South} {
			if len(out) >= max {
				break
			}
			if p, err := refDetour(m, src, dst, side); err == nil {
				add(p)
			}
		}
	}
	return out, nil
}

// sameAsRef reports how a path differs from the reference's, or "".
func sameAsRef(g *topology.Graph, p *Path, err error, ref *refPath, rerr error) string {
	if (err == nil) != (rerr == nil) {
		return fmt.Sprintf("error %v, reference %v", err, rerr)
	}
	if err != nil {
		return ""
	}
	if p.Src != ref.Src || p.Dst != ref.Dst || p.TotalShift != ref.TotalShift {
		return fmt.Sprintf("%v, reference %d->%d shift %d", p, ref.Src, ref.Dst, ref.TotalShift)
	}
	if len(p.Links) != len(ref.Links) {
		return fmt.Sprintf("%d links, reference %d", len(p.Links), len(ref.Links))
	}
	for k, h := range p.Links {
		if h.Link != ref.Links[k] || int(h.Shift) != ref.Shift[k] {
			return fmt.Sprintf("link %d is %d at shift %d, reference %d at %d", k, h.Link, h.Shift, ref.Links[k], ref.Shift[k])
		}
	}
	if ports := p.Ports(g); !slices.Equal(ports, ref.Ports) || p.Hops() != len(ref.Ports) {
		return fmt.Sprintf("ports %v (%d hops), reference %v", ports, p.Hops(), ref.Ports)
	}
	return ""
}

// TestPathsMatchReference: on random meshes (1-4 NIs per router, 0-2
// pipeline stages drawn per link) every constructor returns the links,
// derived ports, shifts and total shift the eager reference computed, or
// fails where it failed.
func TestPathsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	meshes := 40
	if testing.Short() {
		meshes = 8
	}
	for i := 0; i < meshes; i++ {
		m := topology.NewMesh(1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(4))
		for _, l := range m.Links() {
			m.SetPipelineStages(l.ID, rng.Intn(3))
		}
		nis := m.AllNIs()
		for j := 0; j < 60; j++ {
			src, dst := nis[rng.Intn(len(nis))], nis[rng.Intn(len(nis))]
			check := func(what string, p *Path, err error, ref *refPath, rerr error) {
				t.Helper()
				if diff := sameAsRef(m.Graph, p, err, ref, rerr); diff != "" {
					t.Fatalf("%dx%dx%d %d->%d %s: %s", m.Cols, m.Rows, m.NIsPerRouter, src, dst, what, diff)
				}
			}
			p, err := XY(m, src, dst)
			ref, rerr := refXY(m, src, dst)
			check("XY", p, err, ref, rerr)
			p, err = YX(m, src, dst)
			ref, rerr = refYX(m, src, dst)
			check("YX", p, err, ref, rerr)
			p, err = BFS(m.Graph, src, dst)
			ref, rerr = refBFS(m.Graph, src, dst)
			check("BFS", p, err, ref, rerr)
			for turn := -1; turn <= m.Cols; turn++ {
				p, err = Staircase(m, src, dst, turn)
				ref, rerr = refStaircase(m, src, dst, turn)
				check(fmt.Sprint("Staircase ", turn), p, err, ref, rerr)
			}
			for side := -1; side <= topology.NIPortBase; side++ {
				p, err = Detour(m, src, dst, side)
				ref, rerr = refDetour(m, src, dst, side)
				check(fmt.Sprint("Detour ", side), p, err, ref, rerr)
			}
			for _, max := range []int{0, 1, 4, 6} {
				ps, err := Candidates(m, src, dst, max)
				refs, rerr := refCandidates(m, src, dst, max)
				if (err == nil) != (rerr == nil) || len(ps) != len(refs) {
					t.Fatalf("%d->%d Candidates %d: %d paths (%v), reference %d (%v)", src, dst, max, len(ps), err, len(refs), rerr)
				}
				for k := range ps {
					check(fmt.Sprint("Candidates ", max, " #", k), ps[k], nil, refs[k], nil)
				}
			}
		}
	}
}
