package slots

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/phit"
)

// An Allocator turns a batch of slot requests into claims on an
// Allocation. Implementations share the request ordering, the per-request
// placement machinery (candidate-path grouping by TotalShift, per-slot
// path mixing, even-spread slot picking with window repair) and the
// structural invariant that only currently-free slots are ever claimed —
// so any allocator is safe for online reconfiguration by construction.
// They differ in what happens when a request does not fit.
type Allocator interface {
	// Name identifies the strategy ("greedy", "ripup") in CLIs, studies
	// and reports.
	Name() string
	// Place serves the requests into a. In strict mode (bestEffort
	// false) the first unplaceable request aborts with a
	// *PlacementError; connections placed before the failure stay
	// claimed, as AllocateInto always behaved. With bestEffort, an
	// unplaceable request is recorded in Result.Failed and the pass
	// continues — the mode large-scale studies use to measure success
	// rates. Malformed requests (zero count, duplicates, counts past the
	// table) abort either mode.
	Place(a *Allocation, requests []Request, bestEffort bool) (Result, error)
}

// A Result summarises one allocation pass.
type Result struct {
	// Placed lists the connections that got slots, in placement order
	// (rip-up repairs append after the first pass).
	Placed []phit.ConnID
	// Failed lists the requests that could not be placed (best-effort
	// mode only; strict mode aborts at the first).
	Failed []Failure
	// RipUps counts successful rip-up-and-reroute repairs (zero for the
	// greedy allocator).
	RipUps int
}

// SuccessRate is the fraction of requests placed.
func (r *Result) SuccessRate() float64 {
	n := len(r.Placed) + len(r.Failed)
	if n == 0 {
		return 1
	}
	return float64(len(r.Placed)) / float64(n)
}

// A Failure names one unplaceable request.
type Failure struct {
	Conn phit.ConnID
	Err  *PlacementError
}

// Greedy is the baseline allocator: requests in requestOrder (heaviest
// first, longest path breaking ties), each taking the first candidate-path
// group with enough jointly free slots — within a group preferring the
// path whose hottest link is least utilised, which load-balances the mesh
// as the Æthereal allocation tools [16] do — and never revisiting an
// earlier decision. Slots are spread as evenly as possible across the
// table (staggered per connection), which minimises the worst-case waiting
// time in the NI (paper Section VII ties latency to the slot spacing).
type Greedy struct{}

// Name implements Allocator.
func (Greedy) Name() string { return "greedy" }

// Place implements Allocator.
func (Greedy) Place(a *Allocation, requests []Request, bestEffort bool) (Result, error) {
	var res Result
	for _, idx := range requestOrder(requests) {
		req := requests[idx]
		if err := checkRequest(a, req); err != nil {
			return res, err
		}
		asg := placeRequest(a, req)
		if asg == nil {
			pe := placementError(a, req)
			if !bestEffort {
				return res, pe
			}
			res.Failed = append(res.Failed, Failure{Conn: req.Conn, Err: pe})
			continue
		}
		commitAssignment(a, req, asg)
		res.Placed = append(res.Placed, req.Conn)
	}
	return res, nil
}

// RipUp is the Even & Fais-style allocator ("Algorithms for
// Network-on-Chip Design with Guaranteed QoS"): the same greedy ordering,
// but a request that does not fit triggers bounded rip-up-and-reroute —
// the connections blocking the most of its candidate slots are released,
// the blocked request placed, and the victims re-placed on whatever
// capacity remains (their own candidate paths and per-slot path mixing
// give them room the first pass did not need). A repair that cannot
// re-place every victim is rolled back wholesale, so the allocation never
// degrades: everything the greedy allocator places, RipUp places too, and
// the repairs only add placements on top.
//
// Only connections placed in the same Place call are ripped: requests
// already living in the allocation (a running application, during
// reconfiguration) are never disturbed.
type RipUp struct{}

// maxVictims bounds the victim set tried per blocked request. Victim sets
// grow cumulatively — top blocker, top two, ... — so cost is linear in the
// bound.
const maxVictims = 3

// Name implements Allocator.
func (RipUp) Name() string { return "ripup" }

// Place implements Allocator.
//
// In best-effort mode the repairs run as a second pass after the whole
// greedy pass has finished. The ordering matters for the never-worse
// guarantee: an inline repair mutates state that every later placement
// depends on, so it can trade one early success for several later
// failures. A post-pass repair starts from exactly the greedy outcome and
// every adopted repair adds a placement while keeping all victims placed,
// so the placed set only ever grows from the greedy baseline.
func (RipUp) Place(a *Allocation, requests []Request, bestEffort bool) (Result, error) {
	var res Result
	reqOf := make(map[phit.ConnID]Request, len(requests))
	placedHere := make(map[phit.ConnID]bool, len(requests))
	adopt := func(req Request) {
		reqOf[req.Conn] = req
		placedHere[req.Conn] = true
		res.Placed = append(res.Placed, req.Conn)
	}
	var failed []Request
	for _, idx := range requestOrder(requests) {
		req := requests[idx]
		if err := checkRequest(a, req); err != nil {
			return res, err
		}
		if asg := placeRequest(a, req); asg != nil {
			commitAssignment(a, req, asg)
			adopt(req)
			continue
		}
		if !bestEffort {
			// Strict mode is all-or-nothing anyway, so repair inline and
			// abort on the first request that stays unplaceable.
			if ripUpRepair(a, req, reqOf, placedHere) {
				res.RipUps++
				adopt(req)
				continue
			}
			return res, placementError(a, req)
		}
		failed = append(failed, req)
	}
	for _, req := range failed {
		if ripUpRepair(a, req, reqOf, placedHere) {
			res.RipUps++
			adopt(req)
			continue
		}
		res.Failed = append(res.Failed, Failure{Conn: req.Conn, Err: placementError(a, req)})
	}
	return res, nil
}

// ripUpRepair tries to place the blocked request by releasing up to
// maxVictims of the connections blocking its candidate slots and
// re-placing them afterwards. Victim sets grow cumulatively from the top
// blocker; each trial runs in place — release the victims, place the
// blocked request, re-place the victims — and is kept only when the blocked
// request and every victim land. Otherwise the trial is undone: whatever it
// placed is released and the victims get back exactly the claims they held,
// so failure leaves a as it was. Returns whether a repair was adopted.
func ripUpRepair(a *Allocation, req Request, reqOf map[phit.ConnID]Request, rippable map[phit.ConnID]bool) bool {
	victims := blockers(a, req, rippable)
	if len(victims) == 0 {
		return false
	}
	prior := make([]*Assignment, 0, len(victims))
	for k := 1; k <= len(victims); k++ {
		set := victims[:k]
		prior = prior[:0]
		for _, v := range set {
			prior = append(prior, a.ByConn[v])
			a.Release(v)
		}
		if ripUpTrial(a, req, set, reqOf) {
			return true
		}
		for i, v := range set {
			commitAssignment(a, reqOf[v], prior[i])
		}
	}
	return false
}

// ripUpTrial places the blocked request and then every released victim on
// a. When one of them does not fit it releases what it placed and reports
// false, leaving a as the caller handed it over (victims still released).
func ripUpTrial(a *Allocation, req Request, victims []phit.ConnID, reqOf map[phit.ConnID]Request) bool {
	asg := placeRequest(a, req)
	if asg == nil {
		return false
	}
	commitAssignment(a, req, asg)
	for i, v := range victims {
		vreq := reqOf[v]
		vasg := placeRequest(a, vreq)
		if vasg == nil {
			for _, placed := range victims[:i] {
				a.Release(placed)
			}
			a.Release(req.Conn)
			return false
		}
		commitAssignment(a, vreq, vasg)
	}
	return true
}

// blockers returns the maxVictims rippable connections occupying the
// blocked request's candidate paths that block it most, most-blocking first
// (ties by connection id). A connection scores one for every slot it owns
// on every link of every candidate path — a link shared by several
// candidates counts once per candidate. Scores are kept in the scratch's
// dense per-ConnID counters, and rippable is asked once per owner.
func blockers(a *Allocation, req Request, rippable map[phit.ConnID]bool) []phit.ConnID {
	sc := &a.scratch
	for _, p := range req.Paths {
		for _, h := range p.Links {
			r := a.row(h.Link)
			if r == nil {
				continue
			}
			// Every injection slot maps to a distinct slot of the link, so
			// walking the path's injection slots is walking the row.
			for _, owner := range r.owner {
				if owner == phit.None {
					continue
				}
				if int(owner) >= len(sc.count) {
					sc.count = append(sc.count, make([]int32, int(owner)+1-len(sc.count))...)
				}
				if sc.count[owner] == 0 {
					sc.touched = append(sc.touched, owner)
					if !rippable[owner] {
						sc.count[owner] = math.MinInt32 // stays negative: never a victim
					}
				}
				sc.count[owner]++
			}
		}
	}
	// A bounded insertion keeps the leaders in rank order.
	var ids [maxVictims]phit.ConnID
	var ns [maxVictims]int32
	k := 0
	for _, c := range sc.touched {
		n := sc.count[c]
		sc.count[c] = 0
		i := k
		for i > 0 && (n > ns[i-1] || n == ns[i-1] && c < ids[i-1]) {
			i--
		}
		if n < 0 || i == maxVictims {
			continue
		}
		k = min(k+1, maxVictims)
		copy(ids[i+1:k], ids[i:k-1])
		copy(ns[i+1:k], ns[i:k-1])
		ids[i], ns[i] = c, n
	}
	sc.touched = sc.touched[:0]
	return slices.Clone(ids[:k])
}

// Allocators returns every registered strategy, baseline first.
func Allocators() []Allocator { return []Allocator{Greedy{}, RipUp{}} }

// ByName resolves an allocator by name; the empty string selects the
// greedy baseline.
func ByName(name string) (Allocator, error) {
	switch name {
	case "", "greedy":
		return Greedy{}, nil
	case "ripup":
		return RipUp{}, nil
	default:
		return nil, fmt.Errorf("slots: unknown allocator %q (greedy | ripup)", name)
	}
}

// AllocateWith runs one strict allocation pass with the given strategy on
// a fresh table.
func AllocateWith(al Allocator, tableSize int, requests []Request) (*Allocation, error) {
	a := NewAllocation(tableSize)
	if _, err := al.Place(a, requests, false); err != nil {
		return nil, err
	}
	return a, nil
}
