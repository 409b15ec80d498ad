package core

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/topology"
	"repro/internal/trace"
)

// buildReliable assembles the small mesh with the reliability shell
// enabled and the given reporter and retry budget.
func buildReliable(t *testing.T, rep fault.Reporter, retryBudget int) *Network {
	t.Helper()
	m, uc := smallUseCase(t, 6)
	cfg := Config{Reliable: true, RetryBudget: retryBudget, FaultReporter: rep}
	n, err := Build(m, uc, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n
}

// TestReliableCleanMeetsRequirements: with no faults armed the shell must
// be invisible — every connection still meets its contract in all three
// clocking modes, and the recovery machinery never fires. The nil
// reporter keeps the network in strict mode and a strict auditor checks
// every flit, so any violation panics.
func TestReliableCleanMeetsRequirements(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"synchronous", Config{Reliable: true}},
		{"mesochronous", Config{Mode: Mesochronous, PhaseSeed: 11, Reliable: true}},
		{"asynchronous", Config{Mode: Asynchronous, PhaseSeed: 13, PPM: 200, Reliable: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, uc := smallUseCase(t, 6)
			n, err := Build(m, uc, tc.cfg)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			auditStrict(n)
			rep := n.Run(6000, 30000)
			if !rep.AllMet() {
				var b strings.Builder
				rep.Write(&b)
				t.Fatalf("requirements violated with a clean reliable shell:\n%s", b.String())
			}
			for id := range n.conns {
				tx, ok := n.ReliableTxStats(id)
				if !ok {
					t.Fatalf("connection %d has no reliability shell", id)
				}
				if tx.Retransmits != 0 || tx.Quarantined {
					t.Errorf("connection %d: clean run retransmitted %d flits (quarantined=%v)",
						id, tx.Retransmits, tx.Quarantined)
				}
				rx, _ := n.ReliableRxStats(id)
				if rx.CRCDrops+rx.GapDrops+rx.DupDrops+rx.TruncDrops != 0 {
					t.Errorf("connection %d: clean run dropped flits: %+v", id, rx)
				}
			}
		})
	}
}

// TestReliableBitFlipCampaignRecovers is the headline acceptance test: a
// seeded campaign corrupting well over 1%% of flits completes with every
// payload word either delivered or still in a retransmission window, zero
// invariant violations, and the recovery machinery demonstrably active —
// CRC drops, retransmissions and measured head-of-line recoveries.
func TestReliableBitFlipCampaignRecovers(t *testing.T) {
	col := fault.NewCollector()
	n := buildReliable(t, col, 0)
	n.AddInvariantCheckers(col)
	bus := trace.NewBus()
	mx := trace.NewMetrics(bus)
	n.AttachTracer(bus)

	plan := &fault.Plan{Seed: 17, Rates: []fault.RateRule{{BitFlip: 0.01}}}
	campaign := fault.NewCampaign(plan, col)
	if err := campaign.Arm(n.Engine(), n.FaultTargets()); err != nil {
		t.Fatal(err)
	}
	n.Run(0, 40000)

	if col.Total() != 0 {
		t.Fatalf("bit-flip campaign raised %d invariant violations: %+v",
			col.Total(), col.Violations())
	}

	var flips, fresh, retransmits, crcDrops, recovered int64
	for _, o := range campaign.Summarize().RateLinks {
		flips += o.BitsFlipped
	}
	for id, info := range n.conns {
		tx, ok := n.ReliableTxStats(id)
		if !ok {
			t.Fatalf("connection %d has no reliability shell", id)
		}
		if tx.Quarantined {
			t.Errorf("connection %d quarantined at bit-flip rate 0.01 with an unbounded retry budget", id)
			continue
		}
		sent := mx.Conn(id).Sent
		delivered := n.nis[info.dstNI].InStats(id).Delivered
		if missing := sent - delivered; missing < 0 || missing > int64(tx.OutstandingWords) {
			t.Errorf("connection %d lost payload: sent %d, delivered %d, %d words in window",
				id, sent, delivered, tx.OutstandingWords)
		}
		if delivered == 0 {
			t.Errorf("connection %d delivered nothing", id)
		}
		fresh += tx.FreshFlits
		retransmits += tx.Retransmits
		rx, _ := n.ReliableRxStats(id)
		crcDrops += rx.CRCDrops
		recovered += rx.Recovered
	}
	if flips == 0 || fresh == 0 {
		t.Fatalf("campaign injected no faults (%d flips over %d flits)", flips, fresh)
	}
	// Acceptance floor: at least 1% of flits corrupted. Each flit exposes
	// two corruptible phits, so flips alone clear the bar at rate 0.01.
	if flips*100 < fresh {
		t.Errorf("only %d bit flips over %d flits — campaign below the 1%% corruption floor", flips, fresh)
	}
	if crcDrops == 0 || retransmits == 0 || recovered == 0 {
		t.Errorf("recovery machinery idle: %d CRC drops, %d retransmits, %d recoveries",
			crcDrops, retransmits, recovered)
	}

	// The trace metrics must have aggregated the same story, including a
	// populated recovery-latency histogram on at least one connection.
	histSamples := int64(0)
	for id := range n.conns {
		cm := mx.Conn(id)
		histSamples += cm.Recovery.N()
	}
	if histSamples != recovered {
		t.Errorf("metrics recovery histogram holds %d samples, endpoints report %d recoveries",
			histSamples, recovered)
	}
	if mx.Count(trace.CRCDrop) == 0 || mx.Count(trace.Retransmit) == 0 || mx.Count(trace.AckAdvance) == 0 {
		t.Errorf("trace bus missed recovery events: crcdrop=%d rexmit=%d ack=%d",
			mx.Count(trace.CRCDrop), mx.Count(trace.Retransmit), mx.Count(trace.AckAdvance))
	}
}

// TestReliableQuarantineIsolatesFaultyLink: a link dropping every flit
// exhausts the (small) retry budget of each connection crossing it, each
// such connection is quarantined exactly once and reported gracefully,
// and connections avoiding the link keep their full service — the
// composability argument under a hard fault.
func TestReliableQuarantineIsolatesFaultyLink(t *testing.T) {
	col := fault.NewCollector()
	n := buildReliable(t, col, 2)
	bus := trace.NewBus()
	mx := trace.NewMetrics(bus)
	n.AttachTracer(bus)

	// Pick a victim NI that at least one connection avoids entirely, so
	// the test can observe both degradation and isolation.
	victim := topology.NodeID(topology.Invalid)
	var victimName string
	for _, id := range n.Mesh.AllNIs() {
		clear := false
		for _, info := range n.conns {
			if info.srcNI != id && info.dstNI != id {
				clear = true
				break
			}
		}
		touched := false
		for _, info := range n.conns {
			if info.srcNI == id || info.dstNI == id {
				touched = true
				break
			}
		}
		if clear && touched {
			victim = id
			victimName = n.Mesh.Node(id).Name
			break
		}
	}
	if victimName == "" {
		t.Fatal("no NI qualifies as a victim in this use case")
	}

	// Drop everything the victim NI injects: its own data flits and the
	// acks of connections terminating there.
	plan := &fault.Plan{Seed: 3, Rates: []fault.RateRule{
		{Target: "." + victimName + ">", Drop: 1},
	}}
	campaign := fault.NewCampaign(plan, col)
	if err := campaign.Arm(n.Engine(), n.FaultTargets()); err != nil {
		t.Fatal(err)
	}
	n.Run(0, 60000)

	counts := col.CountByKind()
	if len(counts) != 1 || counts[fault.LinkQuarantined] == 0 {
		t.Fatalf("want only link-quarantined violations, got %v", counts)
	}
	quarantined := int64(0)
	for id, info := range n.conns {
		tx, ok := n.ReliableTxStats(id)
		if !ok {
			t.Fatalf("connection %d has no reliability shell", id)
		}
		touches := info.srcNI == victim || info.dstNI == victim
		if touches != tx.Quarantined {
			t.Errorf("connection %d (touches victim: %v) quarantined=%v after %d retries",
				id, touches, tx.Quarantined, tx.Retries)
		}
		if touches {
			quarantined++
			continue
		}
		sent := mx.Conn(id).Sent
		delivered := n.nis[info.dstNI].InStats(id).Delivered
		if delivered == 0 {
			t.Errorf("healthy connection %d delivered nothing while %s was faulty", id, victimName)
		}
		if missing := sent - delivered; missing < 0 || missing > int64(tx.OutstandingWords) {
			t.Errorf("healthy connection %d lost payload: sent %d, delivered %d", id, sent, delivered)
		}
	}
	if quarantined == 0 {
		t.Fatal("no connection touches the victim NI")
	}
	if got := counts[fault.LinkQuarantined]; got != quarantined {
		t.Errorf("%d link-quarantined violations for %d quarantined connections (want one each)",
			got, quarantined)
	}
}

// TestReliableNetworkReplayGoesInert: the reliability shell makes every
// NI's behaviour data-dependent for good, so the NI reports no period and
// the replay program goes inert at its first rescan instead of recording
// epochs it could never engage. The run reads exactly as its
// cycle-accurate twin's.
func TestReliableNetworkReplayGoesInert(t *testing.T) {
	var reports []string
	for _, cycleAccurate := range []bool{true, false} {
		m, uc := smallUseCase(t, 6)
		// A watched network runs on word links, where every NI is a
		// component of its own that replay can name.
		n, err := Build(m, uc, Config{Reliable: true, CycleAccurate: cycleAccurate, FaultReporter: fault.FailFast{}})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		n.eng.Run(n.BaseClock().Period) // the first executed instant rescans
		if !cycleAccurate {
			inert, why := n.prog.Inert()
			namesNI := false
			for _, c := range n.nis {
				namesNI = namesNI || why == "component "+c.Name()+" is aperiodic"
			}
			if !inert || !namesNI {
				t.Fatalf("after the first rescan: inert = %v (%q), want inert naming an aperiodic NI", inert, why)
			}
		}
		var b strings.Builder
		n.Run(6000, 30000).Write(&b)
		reports = append(reports, b.String())
		if !cycleAccurate && n.prog.ProgStats().Engagements != 0 {
			t.Fatal("an inert program engaged")
		}
	}
	if reports[0] != reports[1] {
		t.Fatalf("report differs from the cycle-accurate twin's:\n%s\nvs\n%s", reports[1], reports[0])
	}
}
