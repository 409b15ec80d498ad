package core

import (
	"fmt"

	"repro/internal/phit"
	"repro/internal/slots"
	"repro/internal/spec"
	"repro/internal/topology"
)

// A Plan is the outcome of an allocation-only, best-effort pass: which
// connections got a contention-free schedule and which did not, without
// building or running a network. Scale studies use it to measure
// allocator success rates on workloads too large (or too oversubscribed)
// for the all-or-nothing Build path.
type Plan struct {
	TableSize int
	Allocator string
	// Alloc holds the claims of every fully placed connection (data slots
	// plus reverse credit channel). It passes slots.Verify.
	Alloc *slots.Allocation
	// Placed lists data connections whose data and credit requests both
	// landed, in spec order. Failed lists the rest: a connection whose
	// credit channel cannot be placed is useless, so its data slots are
	// released rather than kept half-allocated.
	Placed []phit.ConnID
	Failed []phit.ConnID
	// RipUps counts adopted rip-up repairs (zero for greedy).
	RipUps int
}

// SuccessRate is the fraction of data connections fully placed.
func (p *Plan) SuccessRate() float64 {
	n := len(p.Placed) + len(p.Failed)
	if n == 0 {
		return 1
	}
	return float64(len(p.Placed)) / float64(n)
}

// PlanAllocation routes and slot-allocates the use case best-effort with
// the configured allocator (Config.Allocator) at the configured table
// size (Config.TableSize; the zero value selects 64). Unlike Build it
// never searches table sizes and never fails on an unplaceable
// connection — it records it. Like Build, it prepares the mesh for the
// config's mode itself.
func PlanAllocation(m *topology.Mesh, uc *spec.UseCase, cfg Config) (*Plan, error) {
	cfg.ApplyDefaults()
	if cfg.TableSize == 0 {
		cfg.TableSize = 64
	}
	if err := uc.ValidateMapped(); err != nil {
		return nil, err
	}
	PrepareTopology(m, cfg)
	al, err := slots.ByName(cfg.Allocator)
	if err != nil {
		return nil, err
	}
	routed, err := routeConnections(m, uc, cfg)
	if err != nil {
		return nil, err
	}
	requests, err := buildRequests(uc, cfg, routed, cfg.TableSize)
	if err != nil {
		return nil, err
	}
	a := slots.NewAllocation(cfg.TableSize)
	res, err := al.Place(a, requests, true)
	if err != nil {
		return nil, err
	}
	placed := make(map[phit.ConnID]bool, len(res.Placed))
	for _, c := range res.Placed {
		placed[c] = true
	}
	plan := &Plan{TableSize: cfg.TableSize, Allocator: al.Name(), Alloc: a, RipUps: res.RipUps}
	for i, c := range uc.Connections {
		rev := requests[2*i+1].Conn
		dataOK, revOK := placed[c.ID], placed[rev]
		if dataOK && revOK {
			plan.Placed = append(plan.Placed, c.ID)
			continue
		}
		if dataOK {
			a.Release(c.ID)
		}
		if revOK {
			a.Release(rev)
		}
		plan.Failed = append(plan.Failed, c.ID)
	}
	if err := a.Verify(); err != nil {
		return nil, fmt.Errorf("core: planned allocation is contended: %w", err)
	}
	return plan, nil
}
