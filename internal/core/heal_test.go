package core

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/trace"
)

// TestHealerReroutesAroundQuarantine: a router-to-router link dropping
// every flit quarantines the connections riding it; the healer closes
// each victim and re-admits it over links clear of the dead path,
// reporting the recovery latency, and the metrics sink folds the reroute
// into the origin connection's account.
func TestHealerReroutesAroundQuarantine(t *testing.T) {
	// The light 3x2x2 workload the reconfig experiment uses, so closes
	// leave room to re-admit into.
	m := topology.NewMesh(3, 2, 2)
	uc := spec.Random(spec.RandomConfig{
		Name: "heal", Seed: 2009, IPs: 10, Apps: 2, Conns: 8,
		MinRateMBps: 20, MaxRateMBps: 80,
		MinLatencyNs: 400, MaxLatencyNs: 1200,
	})
	spec.MapIPsByTraffic(uc, m)
	col := fault.NewCollector()
	n, err := Build(m, uc, Config{Mode: Mesochronous, PhaseSeed: 4,
		Reliable: true, RetryBudget: 2, FaultReporter: col})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	bus := trace.NewBus()
	mx := trace.NewMetrics(bus)
	n.AttachTracer(bus)
	h := NewHealer(n, bus)

	// Pick the faulty link off a live path so at least one connection is
	// guaranteed to quarantine.
	var faulty topology.LinkID = -1
	for _, c := range uc.Connections {
		links, err := n.ConnectionLinks(c.ID)
		if err != nil {
			t.Fatalf("ConnectionLinks(%d): %v", c.ID, err)
		}
		if rl := routerLinks(n.Mesh, links); len(rl) > 0 {
			faulty = rl[0]
			break
		}
	}
	if faulty < 0 {
		t.Fatal("no connection crosses a router-to-router link")
	}
	plan := &fault.Plan{Seed: 5, Rates: []fault.RateRule{{Target: fmt.Sprintf("l%d.", faulty), Drop: 1}}}
	if err := fault.NewCampaign(plan, col).Arm(n.Engine(), n.FaultTargets()); err != nil {
		t.Fatalf("Arm: %v", err)
	}

	heal := func(*Network) error { _, err := h.Heal(); return err }
	if _, err := n.RunTimed(0, 40000, []TimedAction{
		{AtNs: 10000, Do: heal},
		{AtNs: 20000, Do: heal},
		{AtNs: 30000, Do: heal},
	}); err != nil {
		t.Fatalf("RunTimed: %v", err)
	}
	if _, err := h.Heal(); err != nil {
		t.Fatalf("final Heal: %v", err)
	}

	reroutes := 0
	for _, r := range h.Reports() {
		if _, err := n.Info(r.Victim); err == nil {
			t.Errorf("victim %d still open after healing", r.Victim)
		}
		if r.Degraded {
			if r.Replacement != phit.None {
				t.Errorf("degraded victim %d has replacement %d", r.Victim, r.Replacement)
			}
			continue
		}
		if !r.Rerouted {
			t.Errorf("victim %d neither rerouted nor degraded", r.Victim)
			continue
		}
		reroutes++
		if r.RecoveryNs <= 0 {
			t.Errorf("reroute of %d has recovery latency %.1f ns", r.Victim, r.RecoveryNs)
		}
		// The replacement must be clear of the dead link in both
		// directions.
		rl, err := n.ConnectionLinks(r.Replacement)
		if err != nil {
			t.Fatalf("ConnectionLinks(replacement %d): %v", r.Replacement, err)
		}
		for _, l := range rl {
			if l == faulty {
				t.Errorf("replacement %d of victim %d still rides the dead link", r.Replacement, r.Victim)
			}
		}
		if cm := mx.Conn(r.Origin); cm.Reroutes < 1 {
			t.Errorf("metrics count %d reroutes for origin %d", cm.Reroutes, r.Origin)
		}
	}
	if reroutes == 0 {
		t.Fatal("hard fault on a live path triggered no reroute")
	}
}
