// Command aelite-exp regenerates the tables and figures of the paper's
// evaluation (Section VII, Figs. 5 and 6). Each subcommand prints one
// artefact; "all" prints everything, as recorded in EXPERIMENTS.md.
//
// Usage:
//
//	aelite-exp fig5        frequency/area trade-off (Fig. 5)
//	aelite-exp fig6a       area & fmax vs arity (Fig. 6a)
//	aelite-exp fig6b       area & fmax vs data width (Fig. 6b)
//	aelite-exp links       mesochronous link & router area table (Sec. V)
//	aelite-exp throughput  raw throughput table (Sec. VII)
//	aelite-exp sec7        200-connection aelite vs BE comparison
//	aelite-exp scan        best-effort frequency scan (>900 MHz crossover)
//	aelite-exp power       schedule-driven router sleep study (extension)
//	aelite-exp hetero      HSDF model of the wrapped NoC (extension)
//	aelite-exp recovery    bit-flip recovery campaign (reliability layer)
//	aelite-exp conformance guarantee-conformance sweep (audit layer)
//	aelite-exp reconfig    online-reconfiguration study (admission control,
//	                       undisturbed service, self-healing reroute)
//	aelite-exp scale       large-scale study: generator families x mesh
//	                       sizes x allocators (greedy vs rip-up), reporting
//	                       allocation success, allocator runtime, bound
//	                       tightness, audit violations and replay engagement
//	aelite-exp compare     N-backend study: identical generated workloads
//	                       through every registered backend (aelite,
//	                       Æthereal GS+BE, routerless ring overlay) under
//	                       the shared trace bus and conformance auditor,
//	                       contrasting throughput, latency, bounds and area
//	aelite-exp all         everything above
//
// Flags:
//
//	-seed N       workload seed for sec7/scan/scale (default the documented
//	              one)
//	-measure NS   measurement window in ns (default 60000)
//	-freq MHZ     frequency for sec7 (default 500)
//	-j N          parallel sweep workers (default all CPUs; must be at
//	              least 1; results are byte-identical at every worker count)
//	-verbose      print the full 200-connection report tables
//	-out FILE     write the reconfig/scale/compare study's JSON artifact to
//	              FILE; only meaningful with those experiments
//	-smoke        shrink the scale/compare study to its CI gate
//	-pprof FILE   write a CPU profile of the experiment
package main

import (
	"flag"
	"fmt"
	"os"

	"runtime"

	"repro/internal/cli"
	"repro/internal/experiments"
)

// tool names this command in every cli diagnostic.
const tool = "aelite-exp"

func main() {
	seed := flag.Int64("seed", experiments.Sec7Seed, "workload seed for the Section VII experiment")
	measure := flag.Float64("measure", experiments.Sec7MeasureNs, "measurement window in ns")
	freq := flag.Float64("freq", 500, "frequency in MHz for the sec7 comparison")
	jobs := flag.Int("j", runtime.NumCPU(), "parallel sweep workers")
	verbose := flag.Bool("verbose", false, "print full per-connection reports")
	jsonOut := flag.String("out", "", "write the reconfig/scale JSON artifact to this file")
	fast := flag.Bool("fast", false, "hyperperiod-compiled fast replay for GS networks (cycle-accurate fallback where not provably periodic)")
	smoke := flag.Bool("smoke", false, "shrink the scale study to its CI smoke configuration")
	var profile cli.Profile
	profile.Register(flag.CommandLine)
	flag.Parse()
	// Malformed invocations are rejected up front with one-line
	// diagnostics and exit code 2, matching aelite-sim's contract.
	if *measure <= 0 {
		os.Exit(cli.Usage(tool, fmt.Errorf("-measure %g must be positive", *measure)))
	}
	if *freq <= 0 {
		os.Exit(cli.Usage(tool, fmt.Errorf("-freq %g must be positive", *freq)))
	}
	if *jobs < 1 {
		// A zero worker count used to clamp silently; aelite-sim's flag
		// contract (reject, exit 2) applies here too.
		os.Exit(cli.Usage(tool, fmt.Errorf("-j %d must be at least 1", *jobs)))
	}
	if flag.NArg() > 1 {
		os.Exit(cli.Usage(tool, fmt.Errorf("one experiment per invocation (got %q)", flag.Args())))
	}
	experiments.FastReplay = *fast
	j := *jobs

	cmd := "all"
	if flag.NArg() > 0 {
		cmd = flag.Arg(0)
	}
	known := map[string]bool{"all": true, "fig5": true, "fig6a": true, "fig6b": true,
		"links": true, "throughput": true, "sec7": true, "scan": true,
		"power": true, "hetero": true, "recovery": true, "conformance": true,
		"reconfig": true, "scale": true, "compare": true}
	if !known[cmd] {
		flag.Usage()
		os.Exit(cli.Usage(tool, fmt.Errorf("unknown experiment %q", cmd)))
	}
	stopProfile, err := profile.Start()
	if err != nil {
		os.Exit(cli.Failure(tool, err))
	}
	defer stopProfile()

	out := os.Stdout
	run := func(name string, f func() error) {
		if cmd != "all" && cmd != name {
			return
		}
		if err := f(); err != nil {
			stopProfile() // os.Exit skips the deferred call
			os.Exit(cli.Failure(tool, fmt.Errorf("%s: %w", name, err)))
		}
		fmt.Fprintln(out)
	}

	run("fig5", func() error { experiments.WriteFig5(out); return nil })
	run("fig6a", func() error { experiments.WriteFig6a(out); return nil })
	run("fig6b", func() error { experiments.WriteFig6b(out); return nil })
	run("links", func() error { experiments.WriteLinkTable(out); return nil })
	run("throughput", func() error { experiments.WriteThroughput(out); return nil })
	run("sec7", func() error {
		cmp, gs, be, err := experiments.Compare(*seed, *freq, *measure, j)
		if err != nil {
			return err
		}
		experiments.WriteComparison(out, cmp)
		if *verbose {
			fmt.Fprintln(out, "\n--- aelite (guaranteed services) ---")
			gs.Write(out)
			fmt.Fprintln(out, "\n--- Æthereal best effort ---")
			be.Write(out)
		}
		return nil
	})
	run("power", func() error {
		rep, err := experiments.PowerStudy(*seed, *freq)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "-- all four applications running --")
		experiments.WritePower(out, rep)
		one, err := experiments.PowerStudyApp(*seed, *freq, 1)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "\n-- only application 1 running (standby-style operating point) --")
		experiments.WritePower(out, one)
		return nil
	})
	run("hetero", func() error { return experiments.WriteHeterochronous(out) })
	run("recovery", func() error {
		cfg := experiments.DefaultRecoveryConfig()
		cfg.Seed = *seed
		fmt.Fprintf(out, "Bit-flip recovery campaign: %d points, bitflip %.4f drop %.4f per link\n",
			cfg.Points, cfg.BitFlip, cfg.Drop)
		return experiments.WriteRecovery(out, cfg, j)
	})
	run("reconfig", func() error {
		cfg := experiments.DefaultReconfigConfig()
		cfg.Seed = *seed
		sum, err := experiments.ReconfigStudy(cfg, j)
		if err != nil {
			return err
		}
		fmt.Fprint(out, experiments.RenderReconfig(sum))
		if *jsonOut != "" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := experiments.WriteReconfigJSON(f, sum); err != nil {
				return err
			}
		}
		// The artifact is written before gating so a failing run still
		// leaves the evidence behind.
		if sum.Violations > 0 {
			return fmt.Errorf("%d violations: %s", sum.Violations, sum.Failures[0])
		}
		return nil
	})
	run("scale", func() error {
		cfg := experiments.DefaultScaleConfig()
		if *smoke {
			cfg = experiments.SmokeScaleConfig()
		}
		cfg.Seed = *seed
		rep, err := experiments.ScaleStudy(cfg, j)
		if err != nil {
			return err
		}
		rep.Render(out)
		if *jsonOut != "" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := rep.WriteJSON(f); err != nil {
				return err
			}
		}
		// The artifact is written before gating so a failing run still
		// leaves the evidence behind.
		return rep.Verify()
	})
	run("compare", func() error {
		cfg := experiments.DefaultCompareConfig()
		if *smoke {
			cfg = experiments.SmokeCompareConfig()
		}
		cfg.Seed = *seed
		rep, err := experiments.CompareStudy(cfg, j)
		if err != nil {
			return err
		}
		rep.Render(out)
		if *jsonOut != "" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := rep.WriteJSON(f); err != nil {
				return err
			}
		}
		// The artifact is written before gating so a failing run still
		// leaves the evidence behind.
		return rep.Verify()
	})
	run("conformance", func() error {
		cfg := experiments.DefaultConformanceConfig()
		cfg.Seed = *seed
		fmt.Fprintf(out, "Guarantee-conformance sweep: tables %v under all clocking modes, every flit audited\n",
			cfg.TableSizes)
		return experiments.WriteConformance(out, cfg, j)
	})
	run("scan", func() error {
		points, crossover, err := experiments.FrequencyScan(*seed, nil, *measure, j)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Best-effort frequency scan (offered rate %.0fx the GS rates):\n",
			float64(experiments.Sec7BEOpportunism))
		fmt.Fprintf(out, "%10s %12s %14s\n", "MHz", "violations", "worst excess")
		for _, p := range points {
			fmt.Fprintf(out, "%10.0f %12d %11.0f ns\n", p.FreqMHz, p.Violations, p.WorstExcessNs)
		}
		if crossover > 0 {
			fmt.Fprintf(out, "all requirements met from %.0f MHz (aelite needs 500 MHz; paper reports >900 MHz for BE)\n", crossover)
		} else {
			fmt.Fprintln(out, "requirements not met at any scanned frequency")
		}
		return nil
	})
}
