// Fault campaign: probing the edges of aelite's operating envelope.
//
// The paper's guarantees hold under explicit physical assumptions: writer/
// reader skew of at most half a clock cycle on mesochronous links (Section
// V), a 1-2 cycle bi-synchronous FIFO forwarding delay, whole flits in
// every used slot, and continuously firing wrappers kept live by empty
// tokens (Section VI). This example leaves the envelope on purpose, in two
// ways, and watches the violation observers catch it:
//
//  1. A skew sweep across the half-period boundary. In envelope
//     (skew <= period/2) every run is clean; one picosecond past it,
//     every inter-router stage reports a skew-bound violation at build
//     time and the misaligned links shed fifo-underflow, protocol and
//     slot-ownership violations at run time — while the simulation keeps
//     going, because the collector replaces the fail-fast panics.
//
//  2. A deterministic injected-fault campaign (drops, header corruption,
//     duplication, a stretched synchroniser, a wrapper stall) with per-
//     fault detection latency. The same seed always reproduces the same
//     campaign, byte for byte.
//
// Run with:
//
//	go run ./examples/faultcampaign
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/parallel"
	"repro/internal/spec"
	"repro/internal/topology"
)

func buildSpec() *spec.UseCase {
	return spec.Random(spec.RandomConfig{
		Name: "faults", Seed: 5, IPs: 10, Apps: 2, Conns: 10,
		MinRateMBps: 20, MaxRateMBps: 120,
		MinLatencyNs: 300, MaxLatencyNs: 900,
	})
}

// build assembles a mesochronous network with the given skew override and
// reporter; the reporter puts a TDM ownership probe on every link.
func build(skewPS int64, rep fault.Reporter) *core.Network {
	m := topology.NewMesh(3, 2, 2)
	uc := buildSpec()
	spec.MapIPsByTraffic(uc, m)
	cfg := core.Config{
		Mode: core.Mesochronous, FaultReporter: rep, SkewOverridePS: skewPS,
	}
	net, err := core.Build(m, uc, cfg)
	if err != nil {
		log.Fatal(err)
	}
	return net
}

func main() {
	// Part 1: skew sweep across the half-period boundary (period is
	// 2000 ps at the default 500 MHz, so the envelope edge is 1000 ps —
	// inclusive: exactly half a period is still legal).
	period := clock.PeriodFromMHz(500)
	half := int64(period / 2)
	fmt.Printf("skew sweep across the half-period envelope edge (%d ps):\n", half)
	fmt.Printf("%9s %10s %12s %12s %8s\n", "skew(ps)", "envelope", "violations", "kinds", "met")
	// The sweep points are independent simulations — each worker builds
	// its own network and engine — so they fan across all CPUs, and the
	// index-keyed results print in skew order whatever finished first.
	skews := []int64{half - 200, half, half + 1, half + 200, half + 600}
	type skewRow struct {
		violations int64
		kinds      int
		met        bool
	}
	rows, err := parallel.Map(parallel.Jobs(0), len(skews), func(i int) (skewRow, error) {
		col := fault.NewCollector()
		net := build(skews[i], col)
		net.AddInvariantCheckers(col)
		rep := net.Run(5000, 30000)
		return skewRow{violations: col.Total(), kinds: len(col.Kinds()), met: rep.AllMet()}, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range rows {
		skew := skews[i]
		inEnv := "inside"
		if skew > half {
			inEnv = "OUTSIDE"
		}
		fmt.Printf("%9d %10s %12d %12d %8v\n", skew, inEnv, r.violations, r.kinds, r.met)
		if skew <= half && r.violations != 0 {
			log.Fatal("violations reported inside the envelope — the bound must be inclusive")
		}
		if skew > half && r.violations == 0 {
			log.Fatal("no violations past the envelope — the observers missed a misaligned link")
		}
	}
	fmt.Println("the bound is inclusive: skew == period/2 is the largest legal value,")
	fmt.Println("and the first picosecond beyond it is detected, not silently absorbed")

	// Part 2: a deterministic injected-fault campaign.
	fmt.Println("\ninjected-fault campaign (same seed => byte-identical summary):")
	plan, err := fault.ParseSpec(
		"drop@9000:l0.:2;corrupt@12000:l3.;dup@15000:l5.;delay@18000:l1.R1.0:2500;random:3",
		1234)
	if err != nil {
		log.Fatal(err)
	}
	col := fault.NewCollector()
	net := build(0, col)
	summary, err := fault.Execute(plan, col, net, func() { net.Run(5000, 30000) })
	if err != nil {
		log.Fatal(err)
	}
	summary.Write(os.Stdout)

	fmt.Println("\nevery fault is injected at an exact picosecond and every violation is")
	fmt.Println("a structured record — campaigns are reproducible, diffable experiments")
}
