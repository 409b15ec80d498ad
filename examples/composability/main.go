// Composability: the paper's central property, demonstrated word by word.
//
// An application's temporal behaviour on aelite is *bit-identical*
// whether it runs alone or next to other applications — even when those
// applications oversubscribe their allocation by 8x and are throttled by
// back-pressure. The same experiment on the Æthereal best-effort baseline
// shows the timing shifting the moment another application appears.
//
// Run with:
//
//	go run ./examples/composability
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

var (
	auditOn = flag.Bool("audit", false, "check every aelite flit against the analytical guarantee contracts")
	strict  = flag.Bool("strict", false, "with -audit: fail fast on the first violation")
)

func buildSpec() (*topology.Mesh, *spec.UseCase) {
	m := topology.NewMesh(3, 2, 2)
	uc := spec.Random(spec.RandomConfig{
		Name: "composability", Seed: 42, IPs: 12, Apps: 2, Conns: 10,
		MinRateMBps: 20, MaxRateMBps: 150,
		MinLatencyNs: 250, MaxLatencyNs: 900,
	})
	spec.MapIPsByTraffic(uc, m)
	return m, uc
}

// app0 lists application 0's connections: the ones whose timing is compared.
func app0(uc *spec.UseCase) []phit.ConnID {
	var ids []phit.ConnID
	for _, c := range uc.Connections {
		if c.App == 0 {
			ids = append(ids, c.ID)
		}
	}
	return ids
}

// aeliteArrivals runs the aelite network and returns app 0's exact
// arrival instants, with the other application enabled or not (and
// optionally hostile: oversubscribing 8x).
func aeliteArrivals(withOthers, hostile bool) audit.Timelines {
	m, uc := buildSpec()
	net, err := core.Build(m, uc, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	bus := trace.NewBus()
	rx := audit.RecordDeliveries(bus, 0, app0(uc)...)
	var auditor *audit.Auditor
	var auditCol *fault.Collector
	if *auditOn {
		var rep fault.Reporter
		if !*strict {
			auditCol = fault.NewCollector()
			rep = auditCol
		}
		// The hostile phase *deliberately* oversubscribes application 1:
		// tolerate the breach of contract, but keep every other check —
		// slot ownership, exclusivity, app 0's bounds — armed.
		auditor = audit.Attach(net, bus, rep, audit.Options{TolerateOversubscription: hostile})
	}
	net.AttachTracer(bus)
	for _, c := range uc.Connections {
		if c.App != 0 {
			if !withOthers {
				net.Generator(c.ID).SetEnabled(false)
			} else if hostile {
				net.Generator(c.ID).SetRateMBps(c.BandwidthMBps*8, 4)
			}
		}
	}
	net.Run(0, 40000)
	if auditor != nil && auditor.Violations() > 0 {
		for _, v := range auditCol.Violations() {
			fmt.Fprintln(os.Stderr, "audit:", v)
		}
		log.Fatalf("audit: %d guarantee violations (withOthers=%v hostile=%v)",
			auditor.Violations(), withOthers, hostile)
	}
	return rx.Timelines()
}

// beArrivals is the same experiment on the best-effort baseline.
func beArrivals(withOthers bool) audit.Timelines {
	m, uc := buildSpec()
	net, err := core.BuildBE(m, uc, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	bus := trace.NewBus()
	rx := audit.RecordDeliveries(bus, 0, app0(uc)...)
	net.AttachTracer(bus)
	for _, c := range uc.Connections {
		if c.App != 0 && !withOthers {
			net.Generator(c.ID).SetEnabled(false)
		}
	}
	net.Run(0, 40000)
	return rx.Timelines()
}

func main() {
	flag.Parse()
	fmt.Println("== aelite: application 0 alone vs alongside application 1 ==")
	alone := aeliteArrivals(false, false)
	shared := aeliteArrivals(true, false)
	res := audit.Diff(alone, shared)
	fmt.Printf("compared %d delivered words: identical timing = %v\n", res.Words, res.Identical)
	if !res.Identical {
		log.Fatalf("aelite interference detected: %s", res.FirstDiff)
	}

	fmt.Println("\n== aelite: application 1 oversubscribes its allocation 8x ==")
	hostile := aeliteArrivals(true, true)
	res = audit.Diff(alone, hostile)
	fmt.Printf("compared %d delivered words: identical timing = %v\n", res.Words, res.Identical)
	if !res.Identical {
		log.Fatalf("aelite interference under hostile load: %s", res.FirstDiff)
	}
	fmt.Println("the hostile application only slowed itself down (back-pressure);")
	fmt.Println("application 0 did not move by a single picosecond")

	fmt.Println("\n== Æthereal best effort: the same experiment ==")
	beAlone := beArrivals(false)
	beShared := beArrivals(true)
	res = audit.Diff(beAlone, beShared)
	fmt.Printf("compared %d delivered words: identical timing = %v\n", res.Words, res.Identical)
	if res.Identical {
		fmt.Println("(surprising — BE interference usually shows immediately)")
	} else {
		fmt.Printf("first difference: %s\n", res.FirstDiff)
		fmt.Println("composability is lost: application 0's timing depends on application 1")
	}
}
