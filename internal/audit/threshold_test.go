package audit_test

import (
	"math"
	"testing"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/reliable"
	"repro/internal/routerless"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/trace"
)

// recoveryAllowanceRefPs is the reliability shell's recovery allowance,
// derived here apart from core (an external test package, so that this
// file may import routerless, whose tests import audit): every go-back-N round waits one timeout,
// the timeout doubles per silent round up to the backoff cap, and the
// retry budget bounds the rounds.
func recoveryAllowanceRefPs(n *core.Network) float64 {
	if !n.Cfg.Reliable {
		return 0
	}
	budget := n.Cfg.RetryBudget
	if budget <= 0 {
		budget = reliable.DefaultRetryBudget
	}
	var worstBound float64
	for _, id := range n.Connections() {
		if tx, ok := n.ReliableTxStats(id); ok {
			timeoutPs := float64(tx.Timeout)
			backoff, sum := 1.0, 0.0
			for r := 0; r <= budget; r++ {
				sum += backoff
				if backoff < float64(reliable.BackoffCap) {
					backoff *= 2
				}
			}
			if w := timeoutPs * sum; w > worstBound {
				worstBound = w
			}
		}
	}
	return worstBound
}

// A boundedFabric is a built fabric that reports its connections'
// analytical bounds.
type boundedFabric interface {
	audit.ContractSource
	Connections() []phit.ConnID
	Info(phit.ConnID) (core.ConnectionInfo, error)
}

// TestThresholdIsTheBound holds every fabric's auditor to the bound the
// fabric reports, to the picosecond: a word delivered exactly at its
// connection's bound (Info's BoundNs, plus the recovery allowance when
// reliable) is not reported, and one delivered a picosecond later is a
// latency-bound violation. A threshold that drifts from the reported
// bound either way fails here.
func TestThresholdIsTheBound(t *testing.T) {
	aelite := func(cfg core.Config) func(*testing.T) (boundedFabric, float64) {
		return func(t *testing.T) (boundedFabric, float64) {
			m := topology.NewMesh(2, 1, 2)
			uc := spec.Random(spec.RandomConfig{
				Name: "threshold", Seed: 3, IPs: 4, Apps: 2, Conns: 3,
				MinRateMBps: 20, MaxRateMBps: 80,
				MinLatencyNs: 300, MaxLatencyNs: 900,
			})
			spec.MapIPsByTraffic(uc, m)
			cfg.FaultReporter = fault.NewCollector()
			n, err := core.Build(m, uc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return n, recoveryAllowanceRefPs(n)
		}
	}
	ring := func(cfg core.Config) func(*testing.T) (boundedFabric, float64) {
		return func(t *testing.T) (boundedFabric, float64) {
			m := topology.NewMesh(3, 3, 1)
			uc := spec.Random(spec.RandomConfig{
				Name: "threshold", Seed: 7, IPs: 9, Apps: 2, Conns: 8,
				MinRateMBps: 10, MaxRateMBps: 60,
				MinLatencyNs: 2000, MaxLatencyNs: 8000,
			})
			spec.MapIPsRoundRobin(uc, m, 3)
			n, err := routerless.Build(m, uc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return n, 0
		}
	}
	for _, tc := range []struct {
		name     string
		build    func(*testing.T) (boundedFabric, float64)
		reliable bool
	}{
		{"aelite/sync", aelite(core.Config{Mode: core.Synchronous}), false},
		{"aelite/meso", aelite(core.Config{Mode: core.Mesochronous}), false},
		{"aelite/async", aelite(core.Config{Mode: core.Asynchronous, PPM: 1000}), false},
		{"aelite/reliable", aelite(core.Config{Mode: core.Mesochronous, Reliable: true}), true},
		{"routerless/cbr", ring(core.Config{}), false},
		{"routerless/tx", ring(core.Config{Transactional: true}), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, allowancePs := tc.build(t)
			if tc.reliable != (allowancePs > 0) {
				t.Fatalf("recovery allowance %.0f ps on a fabric with reliable=%v", allowancePs, tc.reliable)
			}
			ids := n.Connections()
			if len(ids) == 0 {
				t.Fatal("no connections")
			}
			for _, id := range ids {
				info, err := n.Info(id)
				if err != nil {
					t.Fatal(err)
				}
				// The latest whole picosecond not past the bound: the bound
				// itself when it is whole, as it is on every synchronous
				// fabric.
				boundPs := info.BoundNs*1e3 + allowancePs
				latest := clock.Time(math.Floor(boundPs))
				bus := trace.NewBus()
				comp := bus.Emitter("synthetic").Comp()
				a := audit.Attach(n, bus, fault.NewCollector(), audit.Options{})
				const ref = clock.Time(1_000_000)
				at := trace.Event{Kind: trace.Eject, Conn: id, Seq: 0, Ref: ref, Time: ref + latest, Comp: comp, Slot: trace.NoSlot}
				a.Event(at)
				if a.Violations() != 0 {
					t.Fatalf("connection %d: a word delivered %d ps after injection, bound %.3f ps, was reported (%v)", id, latest, boundPs, a.ByKind())
				}
				past := at
				past.Seq, past.Time = 1, at.Time+1
				a.Event(past)
				if got := a.ByKind()[fault.LatencyBound]; got != 1 || a.Violations() != 1 {
					t.Fatalf("connection %d: a word delivered %d ps after injection, bound %.3f ps, gave %v, want one latency-bound report", id, latest+1, boundPs, a.ByKind())
				}
			}
		})
	}
}
