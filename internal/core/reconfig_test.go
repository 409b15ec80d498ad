package core

import (
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/fault"
	"repro/internal/ni"
	"repro/internal/phit"
	"repro/internal/spec"
	"repro/internal/topology"
)

// reconfigSpec: app 0 is the undisturbed observer; app 1 is the one that
// gets stopped; new connections are admitted afterwards. A strict auditor
// checks every flit; call resync after a reconfiguration.
func reconfigSpec(t *testing.T) (*Network, *spec.UseCase, func()) {
	t.Helper()
	m := topology.NewMesh(3, 2, 2)
	uc := spec.Random(spec.RandomConfig{
		Name: "compos", Seed: 21, IPs: 12, Apps: 3, Conns: 14,
		MinRateMBps: 15, MaxRateMBps: 150,
		MinLatencyNs: 250, MaxLatencyNs: 900,
	})
	spec.MapIPsRoundRobin(uc, m, 5)
	n, err := Build(m, uc, Config{Mode: Synchronous, PhaseSeed: 4})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n, uc, auditStrict(n)
}

// TestCloseReleasesCapacity: slots freed by a closed connection are
// reusable — the same connection can be re-admitted.
func TestCloseReleasesCapacity(t *testing.T) {
	n, uc, resync := reconfigSpec(t)
	n.Run(0, 10000)
	victim := uc.Connections[0]
	before, err := n.Info(victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.CloseConnection(victim.ID); err != nil {
		t.Fatalf("CloseConnection: %v", err)
	}
	if _, err := n.Info(victim.ID); err == nil {
		t.Error("closed connection still reported")
	}
	// Re-admit with a fresh id.
	readmit := victim
	readmit.ID = 901
	mustAdmit(t, n, readmit)
	after, err := n.Info(901)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Slots) < len(before.Slots) {
		t.Errorf("re-admitted with %d slots, originally %d", len(after.Slots), len(before.Slots))
	}
	// The network still runs cleanly under the new schedule.
	resync()
	n.eng.Run(n.eng.Now() + 30000*clock.Nanosecond)
}

// TestCloseDrainCreditStarvation: the drain loop's wait budget is derived
// from the queue depth and the credit round trip, and when even that
// budget cannot empty the queue — here because a fault kills the credit
// channel outright — CloseConnection reports the starvation instead of
// hanging or tearing down a connection with words still queued.
func TestCloseDrainCreditStarvation(t *testing.T) {
	m, uc := smallUseCase(t, 6)
	col := fault.NewCollector()
	cfg := Config{FaultReporter: col}
	n, err := Build(m, uc, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	victim := uc.Connections[0].ID
	info := n.conns[victim]
	// Drop every flit the destination NI injects: that is the victim's
	// credit channel, so deliveries continue until the initial credits run
	// out and then the source send queue fills for good.
	dstName := n.Mesh.Node(info.dstNI).Name
	plan := &fault.Plan{Seed: 3, Rates: []fault.RateRule{{Target: "." + dstName + ">", Drop: 1}}}
	if err := fault.NewCampaign(plan, col).Arm(n.Engine(), n.FaultTargets()); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	n.Run(0, 40000)
	if n.NIOf(info.srcNI).SendQueueSpace(victim) == ni.SendCapacity {
		t.Fatal("recipe failed: send queue drained despite the dead credit channel")
	}
	err = n.CloseConnection(victim)
	if err == nil {
		t.Fatal("CloseConnection succeeded with a starved, non-empty send queue")
	}
	if !strings.Contains(err.Error(), "did not drain") {
		t.Fatalf("want a drain error, got: %v", err)
	}
	// The refused close must not have released anything: the connection is
	// still alive and owns its slots.
	ci, err := n.Info(victim)
	if err != nil {
		t.Fatalf("Info after refused close: %v", err)
	}
	if len(ci.Slots) == 0 {
		t.Error("refused close released the connection's slots")
	}
}

// assertNoSlotResidue is the atomic-release property: after any sequence
// of closes, no closed connection — data or credit direction — owns a
// byte of shared state anywhere (allocation, link slot tables, live NI
// injection tables), every remaining slot owner is a live connection, and
// the allocation's own invariants hold. A violation here is exactly the
// overlap that would let a closed connection's slot be handed to a new
// owner while the old one still injects into it.
func assertNoSlotResidue(t *testing.T, n *Network, closed map[phit.ConnID]bool) {
	t.Helper()
	for id := range closed {
		if n.Alloc.ByConn[id] != nil {
			t.Errorf("closed connection %d still has an allocation", id)
		}
	}
	for _, l := range n.Mesh.Links() {
		for s := 0; s < n.Alloc.TableSize; s++ {
			o := n.Alloc.LinkOwner(l.ID, s)
			if o == phit.None {
				continue
			}
			if closed[o] {
				t.Errorf("closed connection %d still owns slot %d of link %d", o, s, l.ID)
			}
			if n.Alloc.ByConn[o] == nil {
				t.Errorf("slot %d of link %d owned by unknown connection %d", s, l.ID, o)
			}
		}
	}
	for _, nid := range n.Mesh.AllNIs() {
		tb := n.InjectionTable(nid)
		if tb == nil {
			continue
		}
		for s, o := range tb.Slots {
			if closed[o] {
				t.Errorf("closed connection %d still programmed in NI %d slot %d", o, nid, s)
			}
		}
	}
	if err := n.Alloc.Verify(); err != nil {
		t.Errorf("allocation invariants broken: %v", err)
	}
}

// TestCloseReleasesDataAndCreditSlotsAtomically closes connections one by
// one and checks the released-slots-never-overlap-a-live-owner property
// after every step, then re-admits into the freed capacity and checks it
// once more — the credit channel's slots must leave with the data slots,
// in the same step.
func TestCloseReleasesDataAndCreditSlotsAtomically(t *testing.T) {
	n, uc, resync := reconfigSpec(t)
	n.Run(0, 10000)
	closed := map[phit.ConnID]bool{}
	var last spec.Connection
	for _, c := range uc.Connections {
		if c.App != 1 {
			continue
		}
		rev := n.conns[c.ID].rev
		if err := n.CloseConnection(c.ID); err != nil {
			t.Fatalf("CloseConnection(%d): %v", c.ID, err)
		}
		closed[c.ID], closed[rev] = true, true
		last = c
		assertNoSlotResidue(t, n, closed)
	}
	if len(closed) == 0 {
		t.Fatal("workload has no app-1 connections to close")
	}
	// Freed capacity is reusable, and re-admission does not resurrect any
	// released slot under a retired id.
	readmit := last
	readmit.ID = n.FreshConnID()
	mustAdmit(t, n, readmit)
	assertNoSlotResidue(t, n, closed)
	resync()
	n.eng.Run(n.eng.Now() + 20000*clock.Nanosecond)
	assertNoSlotResidue(t, n, closed)
}
