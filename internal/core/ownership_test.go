package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/trace"
)

// A linkUse is one flagged flit on one link: the flit cycle it was driven
// in, the slot that cycle is, its connection and the slot's owner.
type linkUse struct {
	link        topology.LinkID
	cycle       int64
	slot        int
	conn, owner phit.ConnID
}

// TestAuditorMatchesProbes holds the auditor's router-output ownership
// check to the word-level probes it replaces as the live check. On
// collecting synchronous and mesochronous networks a plan of header
// corruptions misroutes flits into slots their links do not give them:
// every router-output flit cycle a probe flags must be flagged by the
// auditor at the same link, cycle and slot, and the reverse. Clean runs
// flag nothing on either side.
func TestAuditorMatchesProbes(t *testing.T) {
	for _, mode := range []core.Mode{core.Synchronous, core.Mesochronous} {
		for _, faulty := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s faulty=%v", mode, faulty), func(t *testing.T) {
				probes, audited := ownershipFlags(t, mode, faulty)
				t.Logf("%d flit cycles flagged by the probes, %d by the auditor", len(probes), len(audited))
				if faulty && len(probes) == 0 {
					t.Fatal("the corruptions misrouted nothing; the twin is untested")
				}
				if !faulty && len(probes)+len(audited) != 0 {
					t.Fatalf("clean run: %d probe and %d auditor flags", len(probes), len(audited))
				}
				for u := range probes {
					if !audited[u] {
						t.Errorf("probe flagged %+v, the auditor did not", u)
					}
				}
				for u := range audited {
					if !probes[u] {
						t.Errorf("auditor flagged %+v, no probe did", u)
					}
				}
			})
		}
	}
}

// ownershipFlags runs one watched network with a collecting auditor and
// returns the router-output flit cycles its probes and its auditor flag.
func ownershipFlags(t *testing.T, mode core.Mode, faulty bool) (probes, audited map[linkUse]bool) {
	t.Helper()
	m := topology.NewMesh(3, 3, 2)
	uc := spec.Random(spec.RandomConfig{
		Name: "ownership", Seed: 20, IPs: 18, Apps: 3, Conns: 20,
		MinRateMBps: 20, MaxRateMBps: 120,
		MinLatencyNs: 300, MaxLatencyNs: 1200,
	})
	spec.MapIPsByTraffic(uc, m)
	col := fault.NewCollector()
	col.SetKeep(1 << 20)
	n, err := core.Build(m, uc, core.Config{Mode: mode, PhaseSeed: 5, FaultReporter: col})
	if err != nil {
		t.Fatal(err)
	}
	bus := trace.NewBus()
	audCol := fault.NewCollector()
	aud := audit.Attach(n, bus, audCol, audit.Options{})
	n.AttachTracer(bus)
	if faulty {
		var ops []string
		for i, l := range n.FaultTargets().Links {
			if from := n.Mesh.Node(n.Mesh.Links()[i].From); from.Kind == topology.Router && i%3 == 0 {
				ops = append(ops, fmt.Sprintf("corrupt@%d:%s:4", 6000+400*len(ops), l.Name))
			}
		}
		plan, err := fault.ParseSpec(strings.Join(ops, ";"), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := fault.NewCampaign(plan, col).Arm(n.Engine(), n.FaultTargets()); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(4000, 12000)

	period := n.BaseClock().Period
	flit := int64(phit.FlitWords) * int64(period)
	table := int64(n.Cfg.TableSize)
	links := n.Mesh.Links()
	routers := map[string]topology.NodeID{}
	for _, r := range n.Mesh.Routers() {
		routers[n.Mesh.Node(r).Name] = r
	}
	probes, audited = map[linkUse]bool{}, map[linkUse]bool{}
	for _, v := range col.Violations() {
		var u linkUse
		if v.Kind != fault.SlotOwnership || !strings.HasPrefix(v.Component, "probe.") {
			continue
		}
		if _, err := fmt.Sscanf(v.Component, "probe.l%d", &u.link); err != nil {
			t.Fatal(err)
		}
		if n.Mesh.Node(links[u.link].From).Kind != topology.Router {
			continue // an NI's output: the auditor checks its SlotStart
		}
		if _, err := fmt.Sscanf(v.Detail, "slot carries connection %d but is allocated to %d", &u.conn, &u.owner); err != nil {
			t.Fatal(err)
		}
		// A probe reports the word driven one writer edge earlier.
		u.cycle = (int64(v.Time) - int64(period)) / flit
		u.slot = int(u.cycle % table)
		probes[u] = true
	}
	for _, v := range audCol.Violations() {
		r, ok := routers[v.Component]
		if v.Kind != fault.SlotOwnership || !ok {
			continue
		}
		var u linkUse
		var port int
		if _, err := fmt.Sscanf(v.Detail, "connection %d left output %d", &u.conn, &port); err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(v.Detail, "no one") {
			if _, err := fmt.Sscanf(v.Detail[strings.LastIndex(v.Detail, " ")+1:], "%d", &u.owner); err != nil {
				t.Fatal(err)
			}
		}
		u.link, u.cycle, u.slot = n.Mesh.OutLink(r, port), int64(v.Time)/flit, v.Slot
		audited[u] = true
	}
	if got := aud.ByKind()[fault.SlotOwnership]; got != int64(len(audited)) {
		t.Fatalf("the auditor counted %d ownership violations but reported %d at router outputs: its per-connection cap hid some", got, len(audited))
	}
	return probes, audited
}

// lateRouterTables states a network's contracts with every router output
// table one slot late: each link's owner moved to the next slot.
type lateRouterTables struct{ n *core.Network }

func (l lateRouterTables) Contracts() analysis.ContractSet {
	set := l.n.Contracts()
	for _, ports := range set.RouterTables {
		for _, table := range ports {
			if len(table) > 0 {
				copy(table, append(table[len(table)-1:], table[:len(table)-1]...))
			}
		}
	}
	return set
}

// TestAuditorChecksRoutersOnFlitLinks: on an unwatched synchronous network
// (flit links, no probes) the auditor is the only live ownership check.
// Against the true allocation a strict auditor passes the run (as every
// strict-audited flit-link test does); against router tables one slot
// late it must stop the run at the first flit a router forwards.
func TestAuditorChecksRoutersOnFlitLinks(t *testing.T) {
	m := topology.NewMesh(3, 3, 2)
	uc := spec.Random(spec.RandomConfig{
		Name: "ownership", Seed: 20, IPs: 18, Apps: 3, Conns: 20,
		MinRateMBps: 20, MaxRateMBps: 120,
		MinLatencyNs: 300, MaxLatencyNs: 1200,
	})
	spec.MapIPsByTraffic(uc, m)
	for _, late := range []bool{false, true} {
		n, err := core.Build(m, uc, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		bus := trace.NewBus()
		var src audit.ContractSource = n
		if late {
			src = lateRouterTables{n}
		}
		audit.Attach(src, bus, nil, audit.Options{})
		n.AttachTracer(bus)
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if late != strings.Contains(msg, "left output") {
					t.Errorf("late tables %v: run ended with %q", late, msg)
				}
			}()
			n.Run(0, 8000)
		}()
	}
}
