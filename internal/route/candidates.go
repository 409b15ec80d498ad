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
	s, d, err := endpoints(m.Graph, src, dst)
	if err != nil {
		return nil, err
	}
	sr, dr := m.Node(s.Router), m.Node(d.Router)
	x := xLeg(sr.X, dr.X)
	first := leg{x.port, min(max(turnAfter, 0), x.n)}
	return walk(m, s, d, [3]leg{first, yLeg(sr.Y, dr.Y), {x.port, x.n - first.n}})
}

// Detour computes a non-minimal route that first side-steps one hop
// through firstPort (any mesh direction), then routes dimension-ordered
// to the destination — Y-first after an X side-step, X-first after a Y
// side-step, so the side-step is not immediately undone. Detours rescue
// connections whose only minimal route crosses a saturated link —
// harmless in aelite because contention-free TDM cannot deadlock, at the
// price of two extra slots of shift.
func Detour(m *topology.Mesh, src, dst topology.NodeID, firstPort int) (*Path, error) {
	s, d, err := endpoints(m.Graph, src, dst)
	if err != nil {
		return nil, err
	}
	if s.Router == d.Router {
		return nil, fmt.Errorf("route: detour between NIs on one router is pointless")
	}
	sr, dr := m.Node(s.Router), m.Node(d.Router)
	// The dimension-ordered legs start one hop off the source router; a
	// side-step off the mesh edge fails in walk before they are used.
	x, y := sr.X, sr.Y
	switch firstPort {
	case topology.East:
		x++
	case topology.West:
		x--
	case topology.South:
		y++
	case topology.North:
		y--
	default:
		return nil, fmt.Errorf("route: detour side must be a mesh direction")
	}
	side, xl, yl := leg{firstPort, 1}, xLeg(x, dr.X), yLeg(y, dr.Y)
	if x != sr.X {
		return walk(m, s, d, [3]leg{side, yl, xl})
	}
	return walk(m, s, d, [3]leg{side, xl, yl})
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
	out := make([]*Path, 0, max)
	for turn := abs(sr.X - dr.X); turn >= 0 && len(out) < max; turn-- {
		p, err := Staircase(m, src, dst, turn)
		if err != nil {
			return nil, err
		}
		out = addDistinct(out, p)
		if sr.Y == dr.Y {
			break // a straight line is its own only staircase
		}
	}
	if sr.ID != dr.ID {
		for _, side := range [...]int{topology.East, topology.West, topology.North, topology.South} {
			if len(out) >= max {
				break
			}
			if p, err := Detour(m, src, dst, side); err == nil {
				out = addDistinct(out, p)
			}
		}
	}
	return out, nil
}

// addDistinct appends p unless a path with the same link sequence is
// already there. A handful of candidates at most, so compare directly.
func addDistinct(out []*Path, p *Path) []*Path {
	for _, q := range out {
		if slices.Equal(q.Links, p.Links) {
			return out
		}
	}
	return append(out, p)
}
