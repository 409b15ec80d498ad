// Quickstart: the paper's Figure 1 scenario, end to end.
//
// Two IP cores communicate over a small aelite NoC using two
// guaranteed-service connections: cA owns two TDM slots, cB owns one.
// The slot tables enforce contention-free routing — no two flits ever
// reach the same link in the same slot, so the routers need no arbiters —
// and every connection's latency and throughput follow analytically from
// its reservation.
//
// Run with:
//
//	go run ./examples/quickstart
//
// Pass -trace-out trace.json to additionally record every flit lifecycle
// event as Chrome trace-event JSON; load the file in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing to see each connection's
// flits hop through the NIs and routers slot by slot.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/trace"
)

func main() {
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON of every flit lifecycle event")
	auditOn := flag.Bool("audit", false, "check every flit against the analytical guarantee contracts")
	strict := flag.Bool("strict", false, "with -audit: fail fast on the first violation")
	flag.Parse()

	// A 2x1 mesh: two routers, one NI each — the shape of Fig. 1.
	mesh := topology.NewMesh(2, 1, 1)

	// Two IPs on opposite sides, two connections between them.
	uc := &spec.UseCase{
		Name: "fig1",
		Apps: 2,
		IPs: []spec.IP{
			{ID: 0, Name: "IPA", NI: mesh.NIAt(0, 0, 0)},
			{ID: 1, Name: "IPB", NI: mesh.NIAt(1, 0, 0)},
		},
		Connections: []spec.Connection{
			// cA: the heavier stream (think video samples).
			{ID: 1, App: 0, Src: 0, Dst: 1, BandwidthMBps: 120, MaxLatencyNs: 300},
			// cB: a lighter reverse stream.
			{ID: 2, App: 1, Src: 1, Dst: 0, BandwidthMBps: 60, MaxLatencyNs: 400},
		},
	}
	if err := uc.Validate(); err != nil {
		log.Fatal(err)
	}

	cfg := core.Config{FreqMHz: 500} // -audit verifies the TDM schedule live
	net, err := core.Build(mesh, uc, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Contention-free routing (paper Fig. 1): per-NI TDM slot tables")
	fmt.Printf("(table size %d; a reservation shifts one slot per hop)\n\n", net.Cfg.TableSize)
	for _, id := range mesh.AllNIs() {
		t := net.Alloc.NITable(id)
		fmt.Printf("  %-8s slots %v\n", mesh.Node(id).Name, t.Slots)
	}

	fmt.Println("\nAnalytical guarantees from the allocation:")
	for _, c := range uc.Connections {
		info, err := net.Info(c.ID)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  connection %d: %d slots -> %.1f MB/s guaranteed (%.1f required), latency bound %.1f ns (%.1f allowed)\n",
			c.ID, len(info.Slots), info.GuaranteedMBps, c.BandwidthMBps, info.BoundNs, c.MaxLatencyNs)
	}

	var chrome *trace.Chrome
	var auditor *audit.Auditor
	var auditCol *fault.Collector
	if *traceOut != "" || *auditOn {
		bus := trace.NewBus()
		if *traceOut != "" {
			chrome = trace.NewChrome(bus)
			chrome.SetFlitCycle(phit.FlitWords * int64(net.BaseClock().Period))
		}
		if *auditOn {
			var rep fault.Reporter
			if !*strict {
				auditCol = fault.NewCollector()
				rep = auditCol
			}
			auditor = audit.Attach(net, bus, rep, audit.Options{})
		}
		net.AttachTracer(bus)
	}

	// Simulate 100 µs at 500 MHz and compare measurement to guarantee.
	rep := net.Run(5000, 100000)
	fmt.Println("\nSimulation (cycle-accurate, 100 µs):")
	rep.Write(os.Stdout)
	if chrome != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := chrome.WriteTo(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %d trace events to %s (open in https://ui.perfetto.dev)\n", chrome.Len(), *traceOut)
	}
	if auditor != nil {
		fmt.Println()
		auditor.WriteSummary(os.Stdout)
		if auditor.Violations() > 0 {
			for _, v := range auditCol.Violations() {
				fmt.Fprintln(os.Stderr, "audit:", v)
			}
			os.Exit(1)
		}
	}
	if rep.AllMet() && rep.AllWithinBound() {
		fmt.Println("\nevery requirement met and every measured latency within its bound")
	} else {
		fmt.Println("\nVIOLATIONS — this should never happen")
		os.Exit(1)
	}
}
