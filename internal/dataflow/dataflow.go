package dataflow

import (
	"fmt"
	"math"
)

// ActorID indexes an actor in a Graph.
type ActorID int

// An Actor fires with a fixed duration (any time unit; picoseconds when
// modelling aelite).
type Actor struct {
	Name     string
	Duration float64
}

// An Edge is a channel from Src to Dst carrying Tokens initial tokens and
// an optional extra latency (transfer delay).
type Edge struct {
	Src, Dst ActorID
	Tokens   int
	Latency  float64
}

// A Graph is an HSDF graph.
type Graph struct {
	actors []Actor
	edges  []Edge
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddActor appends an actor and returns its id.
func (g *Graph) AddActor(name string, duration float64) ActorID {
	if duration < 0 {
		panic(fmt.Sprintf("dataflow: actor %q has negative duration", name))
	}
	g.actors = append(g.actors, Actor{Name: name, Duration: duration})
	return ActorID(len(g.actors) - 1)
}

// AddEdge appends a channel. Tokens must be non-negative.
func (g *Graph) AddEdge(src, dst ActorID, tokens int, latency float64) {
	if tokens < 0 || latency < 0 {
		panic("dataflow: negative tokens or latency")
	}
	g.check(src)
	g.check(dst)
	g.edges = append(g.edges, Edge{Src: src, Dst: dst, Tokens: tokens, Latency: latency})
}

// AddChannel models a bounded FIFO of the given capacity between two
// actors: a forward edge with the initial tokens plus the standard
// back-pressure edge carrying the remaining capacity.
func (g *Graph) AddChannel(src, dst ActorID, initialTokens, capacity int, latency float64) {
	if capacity < initialTokens {
		panic("dataflow: channel capacity below initial marking")
	}
	g.AddEdge(src, dst, initialTokens, latency)
	g.AddEdge(dst, src, capacity-initialTokens, 0)
}

func (g *Graph) check(a ActorID) {
	if a < 0 || int(a) >= len(g.actors) {
		panic(fmt.Sprintf("dataflow: no actor %d", a))
	}
}

// MCR computes the maximum cycle ratio — the steady-state iteration
// period — by parametric binary search: a candidate period P is feasible
// iff the graph with edge weights (duration(src) + latency - P*tokens)
// has no positive cycle, which Bellman-Ford detects. It returns an error
// if some actor lies on no token-carrying cycle (the graph would run
// unboundedly fast or deadlock, depending on direction).
func (g *Graph) MCR() (float64, error) {
	if len(g.actors) == 0 {
		return 0, fmt.Errorf("dataflow: empty graph")
	}
	// A cycle with zero tokens deadlocks (or, for weight purposes,
	// makes every period infeasible). Detect via feasibility of a huge
	// period: if even that has a positive cycle, a token-free cycle
	// with positive duration exists.
	lo, hi := 0.0, 0.0
	for _, e := range g.edges {
		hi += g.actors[e.Src].Duration + e.Latency
	}
	for _, a := range g.actors {
		hi += a.Duration
	}
	if hi == 0 {
		return 0, nil
	}
	if g.positiveCycle(hi * 2) {
		return 0, fmt.Errorf("dataflow: token-free cycle (deadlock)")
	}
	if !g.positiveCycle(0) {
		// No cycle constrains the period at all.
		return 0, fmt.Errorf("dataflow: no token-carrying cycle bounds the rate")
	}
	for i := 0; i < 60 && hi-lo > 1e-9*math.Max(1, hi); i++ {
		mid := (lo + hi) / 2
		if g.positiveCycle(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, nil
}

// positiveCycle reports whether, at candidate period p, some cycle has
// total (duration + latency - p*tokens) > 0, i.e. the period is
// infeasible (too fast).
func (g *Graph) positiveCycle(p float64) bool {
	n := len(g.actors)
	dist := make([]float64, n)
	// Longest-path relaxation from all sources simultaneously (dist
	// starts at 0 for every node, which is equivalent to a virtual
	// source connected everywhere).
	for iter := 0; iter < n; iter++ {
		changed := false
		for _, e := range g.edges {
			w := g.actors[e.Src].Duration + e.Latency - p*float64(e.Tokens)
			if d := dist[e.Src] + w; d > dist[e.Dst]+1e-12 {
				dist[e.Dst] = d
				changed = true
			}
		}
		if !changed {
			return false
		}
	}
	// Still relaxing after n rounds: positive cycle.
	for _, e := range g.edges {
		w := g.actors[e.Src].Duration + e.Latency - p*float64(e.Tokens)
		if dist[e.Src]+w > dist[e.Dst]+1e-12 {
			return true
		}
	}
	return false
}

// ThroughputHz returns the steady-state firing rate 1/MCR (when durations
// are in seconds; for picosecond durations the unit is fires per
// picosecond).
func (g *Graph) ThroughputHz() (float64, error) {
	p, err := g.MCR()
	if err != nil {
		return 0, err
	}
	if p == 0 {
		return math.Inf(1), nil
	}
	return 1 / p, nil
}
