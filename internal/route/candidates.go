package route

import (
	"fmt"
	"slices"

	"repro/internal/topology"
)

// Staircase computes a minimal route that travels turnAfter hops in the X
// dimension, then all of Y, then the remaining X — a family that
// interpolates between XY (turnAfter = full X distance) and YX
// (turnAfter = 0). All staircase routes are minimal; offering several to
// the slot allocator defeats the alignment fragmentation that a single
// dimension-ordered path suffers on loaded meshes.
//
// Note: unlike pure XY/YX, mixed staircases are not deadlock-free under
// wormhole routing — but aelite needs no such guarantee: contention-free
// TDM never blocks in-network, so any minimal route is safe (one more
// freedom the GS-only architecture buys).
func Staircase(m *topology.Mesh, src, dst topology.NodeID, turnAfter int) (*Path, error) {
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
	p := &Path{Src: src, Dst: dst, Links: make([]topology.LinkID, 0, abs(sr.X-dr.X)+abs(sr.Y-dr.Y)+2)}
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
	return finish(m.Graph, p), nil
}

// Detour computes a non-minimal route that first side-steps one hop
// through firstPort (any mesh direction), then routes dimension-ordered
// to the destination — Y-first after an X side-step, X-first after a Y
// side-step, so the side-step is not immediately undone. Detours rescue
// connections whose only minimal route crosses a saturated link —
// harmless in aelite because contention-free TDM cannot deadlock, at the
// price of two extra slots of shift.
func Detour(m *topology.Mesh, src, dst topology.NodeID, firstPort int) (*Path, error) {
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
	return finish(m.Graph, p), nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Candidates returns up to max distinct routes between two NIs: every
// minimal staircase (XY towards YX), followed by one-hop X side-step
// detours when the minimal family is smaller than max. Duplicate link
// sequences (straight-line routes have only one minimal path) are
// collapsed.
func Candidates(m *topology.Mesh, src, dst topology.NodeID, max int) ([]*Path, error) {
	if max < 1 {
		max = 1
	}
	sr := m.Node(m.Node(src).Router)
	dr := m.Node(m.Node(dst).Router)
	dx := abs(sr.X - dr.X)
	var out []*Path
	// A handful of candidates at most, so de-duplicate by comparing link
	// sequences directly.
	add := func(p *Path) {
		for _, q := range out {
			if slices.Equal(q.Links, p.Links) {
				return
			}
		}
		out = append(out, p)
	}
	for turn := dx; turn >= 0 && len(out) < max; turn-- {
		p, err := Staircase(m, src, dst, turn)
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
			if p, err := Detour(m, src, dst, side); err == nil {
				add(p)
			}
		}
	}
	return out, nil
}
