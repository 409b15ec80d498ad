// Reliability: surviving noisy links without touching the network core.
//
// The paper's service guarantees assume links never corrupt data. This
// example turns that assumption off — every link flips payload bits and
// erases whole flits at a seeded rate — and shows the end-to-end
// reliability shell (core.Config{Reliable: true}) healing the damage
// from inside the NIs: CRC-protected flits, cumulative acks on the
// paired reverse connection, go-back-N retransmission in the
// connection's own reserved TDM slots.
//
// Two campaigns run:
//
//  1. A soft-fault campaign (1% of phits corrupted, 0.1% of flits
//     dropped, on every link). Every connection still delivers 100% of
//     its payload; the cost is retransmissions and a measurable
//     head-of-line recovery latency, never another connection's
//     bandwidth.
//
//  2. A hard fault: one NI's output link drops everything. The
//     connections crossing it exhaust a small retry budget — timeout
//     doubling per silent round — and are quarantined, each reported as
//     one graceful link-quarantined violation, while every connection
//     avoiding the link keeps full service. Composability holds under
//     faults, not just under contention.
//
// Run with:
//
//	go run ./examples/reliability
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/trace"
)

var (
	auditOn = flag.Bool("audit", false, "check every flit against the analytical guarantee contracts")
	strict  = flag.Bool("strict", false, "with -audit: fail fast on the first violation")
)

// build assembles a mesochronous 3x2 mesh with the reliability shell on
// every connection and a collecting (graceful) violation reporter.
func build(col *fault.Collector, retryBudget int) *core.Network {
	m := topology.NewMesh(3, 2, 2)
	uc := spec.Random(spec.RandomConfig{
		Name: "reliability", Seed: 5, IPs: 10, Apps: 2, Conns: 10,
		MinRateMBps: 20, MaxRateMBps: 120,
		MinLatencyNs: 300, MaxLatencyNs: 900,
	})
	spec.MapIPsByTraffic(uc, m)
	cfg := core.Config{
		Mode: core.Mesochronous, Reliable: true,
		RetryBudget: retryBudget, FaultReporter: col,
	}
	net, err := core.Build(m, uc, cfg)
	if err != nil {
		log.Fatal(err)
	}
	return net
}

// campaign arms the given rate rules, runs for measureNs, and prints one
// line per connection: payload accounting and recovery work. With -audit,
// the conformance auditor rides along on its own collector — the expected
// campaign violations (link-quarantined) stay in col, while a breach of a
// *guarantee* (bound past the recovery allowance, slot misuse, reordering)
// fails the example.
func campaign(col *fault.Collector, net *core.Network, rules []fault.RateRule, measureNs float64) {
	var auditor *audit.Auditor
	var auditCol *fault.Collector
	if *auditOn {
		bus := trace.NewBus()
		var rep fault.Reporter
		if !*strict {
			auditCol = fault.NewCollector()
			rep = auditCol
		}
		auditor = audit.Attach(net, bus, rep, audit.Options{})
		net.AttachTracer(bus)
	}
	plan := &fault.Plan{Seed: 42, Rates: rules}
	c := fault.NewCampaign(plan, col)
	if err := c.Arm(net.Engine(), net.FaultTargets()); err != nil {
		log.Fatal(err)
	}
	rep := net.Run(0, measureNs)
	if auditor != nil && auditor.Violations() > 0 {
		for _, v := range auditCol.Violations() {
			fmt.Fprintln(os.Stderr, "audit:", v)
		}
		log.Fatalf("audit: %d guarantee violations under faults", auditor.Violations())
	}
	var flips, drops int64
	for _, o := range c.Summarize().RateLinks {
		flips += o.BitsFlipped
		drops += o.FlitsDropped
	}
	fmt.Printf("injected: %d bit flips, %d flit drops; violations: %d\n",
		flips, drops, col.Total())
	fmt.Printf("%6s %9s %6s %7s %5s  %s\n",
		"conn", "delivered", "crc", "rexmit", "quar", "payload")
	for _, cr := range rep.Conns {
		tx, _ := net.ReliableTxStats(cr.Conn)
		rx, _ := net.ReliableRxStats(cr.Conn)
		state := "complete"
		if tx.Quarantined {
			state = "quarantined"
		}
		fmt.Printf("%6d %9d %6d %7d %5v  %s\n",
			cr.Conn, cr.Delivered, rx.CRCDrops, tx.Retransmits, tx.Quarantined, state)
	}
}

func main() {
	flag.Parse()
	fmt.Println("soft faults: every link flips 1% of phits and drops 0.1% of flits")
	col := fault.NewCollector()
	campaign(col, build(col, 0), []fault.RateRule{{BitFlip: 0.01, Drop: 0.001}}, 30000)
	fmt.Println("\nevery corrupted flit failed the CRC at the destination NI and was")
	fmt.Println("retransmitted in the sender's own reserved slots — no connection")
	fmt.Println("lost payload, and no connection paid for another's faults")

	fmt.Println("\nhard fault: one NI's output link drops every flit (retry budget 2)")
	col = fault.NewCollector()
	net := build(col, 2)
	campaign(col, net, []fault.RateRule{{Target: ".NI0.0.0>", Drop: 1}}, 40000)
	kinds := col.CountByKind()
	fmt.Printf("\n%d connections quarantined (one link-quarantined violation each);\n",
		kinds[fault.LinkQuarantined])
	fmt.Println("their slots fall idle, every other connection keeps full service")
}
