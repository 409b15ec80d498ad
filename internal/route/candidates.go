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
	return walk(m, s, d, staircaseLegs(xLeg(sr.X, dr.X), yLeg(sr.Y, dr.Y), turnAfter), new(Path))
}

// staircaseLegs turns from the X leg into the Y leg after turnAfter hops.
func staircaseLegs(x, y leg, turnAfter int) [3]leg {
	first := min(max(turnAfter, 0), x.n)
	return [3]leg{{x.port, first}, y, {x.port, x.n - first}}
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
	legs, err := detourLegs(&sr, &dr, firstPort)
	if err != nil {
		return nil, err
	}
	return walk(m, s, d, legs, new(Path))
}

// detourLegs side-steps from router sr through firstPort and then runs
// dimension-ordered to dr. The dimension-ordered legs start one hop off the
// source router; a side-step off the mesh edge fails in walk before they
// are used.
func detourLegs(sr, dr *topology.Node, firstPort int) ([3]leg, error) {
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
		return [3]leg{}, fmt.Errorf("route: detour side must be a mesh direction")
	}
	side, xl, yl := leg{firstPort, 1}, xLeg(x, dr.X), yLeg(y, dr.Y)
	if x != sr.X {
		return [3]leg{side, yl, xl}, nil
	}
	return [3]leg{side, xl, yl}, nil
}

// Candidates returns up to max distinct routes between two NIs: every
// minimal staircase (XY towards YX), followed by one-hop X side-step
// detours when the minimal family is smaller than max. Duplicate link
// sequences (straight-line routes have only one minimal path) are
// collapsed. The candidates' hops share one array.
func Candidates(m *topology.Mesh, src, dst topology.NodeID, max int) ([]*Path, error) {
	return new(Arena).Candidates(m, src, dst, max)
}

// An Arena carves the hops, Paths and result slices of many Candidates calls
// from chunks sized for the calls it still expects (up to maxChunk), so the
// tail a chunk leaves and the last chunks stay small. A path keeps its chunk
// alive. An Arena serves one goroutine; the zero value expects one call.
type Arena struct {
	hops  []Hop
	paths []Path
	out   []*Path
	calls int
}

// maxChunk is the most calls one chunk is sized for.
const maxChunk = 256

// NewArena returns an arena that expects about calls Candidates calls.
func NewArena(calls int) *Arena { return &Arena{calls: calls} }

// carve returns the next n elements of the chunk, capped at n, starting a
// chunk for calls such calls when the current one has no room.
func carve[T any](chunk *[]T, n, calls int) []T {
	l := len(*chunk)
	if cap(*chunk)-l < n {
		*chunk, l = make([]T, 0, n*min(calls, maxChunk)), 0
	}
	return (*chunk)[l : l+n : l+n]
}

// Candidates is the package-level Candidates with its memory carved from the
// arena.
func (ar *Arena) Candidates(m *topology.Mesh, src, dst topology.NodeID, most int) ([]*Path, error) {
	most = max(most, 1)
	s, d, err := endpoints(m.Graph, src, dst)
	if err != nil {
		return nil, err
	}
	sr, dr := m.Node(s.Router), m.Node(d.Router)
	x, y := xLeg(sr.X, dr.X), yLeg(sr.Y, dr.Y)
	// A staircase crosses the Manhattan distance and the two NI links, a
	// detour two links more; the call reserves room for most detours and
	// keeps what its candidates use. A candidate dropped as a repeat leaves
	// its hops and its Path to the next.
	calls := max(ar.calls, 1)
	ar.calls = calls - 1
	hops := carve(&ar.hops, most*(x.n+y.n+4), calls)[:0]
	paths := carve(&ar.paths, most, calls)
	out := carve(&ar.out, most, calls)[:0]
	add := func(legs [3]leg) error {
		p := &paths[len(out)]
		p.Links = hops[len(hops):]
		if _, err := walk(m, s, d, legs, p); err != nil {
			return err
		}
		// A handful of candidates at most, so compare link sequences directly.
		if !slices.ContainsFunc(out, func(q *Path) bool { return slices.Equal(q.Links, p.Links) }) {
			hops = append(hops, p.Links...) // in place: the walk wrote them there
			p.Links = slices.Clip(p.Links)
			out = append(out, p)
		}
		return nil
	}
	for turn := x.n; turn >= 0 && len(out) < most; turn-- {
		if err := add(staircaseLegs(x, y, turn)); err != nil {
			return nil, err
		}
		if y.n == 0 {
			break // a straight line is its own only staircase
		}
	}
	for _, side := range [...]int{topology.East, topology.West, topology.North, topology.South} {
		if len(out) >= most || sr.ID == dr.ID {
			break
		}
		if legs, err := detourLegs(&sr, &dr, side); err == nil {
			add(legs) // a side-step off the mesh edge is no candidate
		}
	}
	ar.hops = ar.hops[:len(ar.hops)+len(hops)]
	ar.paths = ar.paths[:len(ar.paths)+len(out)]
	ar.out = ar.out[:len(ar.out)+len(out)]
	return slices.Clip(out), nil
}
