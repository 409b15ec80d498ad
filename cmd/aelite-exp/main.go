// Command aelite-exp regenerates the tables and figures of the paper's
// evaluation (Section VII, Figs. 5 and 6) and runs the studies built on
// them. Each experiment prints one artefact; "all" (also the default)
// prints every one, as recorded in EXPERIMENTS.md. The experiments are
// declared once, in main's table; aelite-exp -h lists them with the flags.
//
// Usage:
//
//	aelite-exp [flags] [experiment]
//
// Flags come before the experiment. -j (default all CPUs, at least 1)
// fans sweeps over workers with byte-identical results at every count.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/experiments"
)

// tool names this command in every cli diagnostic.
const tool = "aelite-exp"

// An experiment is one artefact aelite-exp prints.
type experiment struct {
	name, help string
	run        func() error
	// query marks an answer to the command line's own question rather than
	// a recorded artefact: "all" leaves it out, and its output ends where
	// it ends, without the blank line that separates artefacts.
	query bool
}

func main() {
	seed := flag.Int64("seed", experiments.Sec7Seed, "workload seed for the Section VII experiment")
	measure := flag.Float64("measure", experiments.Sec7MeasureNs, "measurement window in ns")
	freq := flag.Float64("freq", 500, "frequency in MHz for the sec7 comparison")
	jobs := flag.Int("j", runtime.NumCPU(), "parallel sweep workers")
	verbose := flag.Bool("verbose", false, "print full per-connection reports")
	jsonOut := flag.String("out", "", "write the reconfig/scale/compare JSON artifact to this file")
	smoke := flag.Bool("smoke", false, "shrink the scale/compare study to its CI smoke configuration")
	arity := flag.Int("arity", 5, "area: router arity (input and output ports)")
	width := flag.Int("width", 32, "area: data width in bits")
	target := flag.Float64("target", 600, "area: synthesis target frequency in MHz")
	custom := flag.Bool("custom-fifo", false, "area: use the custom FIFO cells of [18] instead of standard cells")
	var profile cli.Profile
	profile.Register(flag.CommandLine)

	out := os.Stdout
	// study renders a finished study, writes its JSON artifact when -out
	// names a file, and only then gates on verify, so a failing run still
	// leaves the evidence behind.
	study := func(render func(io.Writer), writeJSON func(io.Writer) error, verify func() error) error {
		render(out)
		if *jsonOut != "" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				return err
			}
			if err := writeJSON(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		return verify()
	}
	exps := []experiment{
		{name: "fig5", help: "frequency/area trade-off (Fig. 5)",
			run: func() error { experiments.WriteFig5(out); return nil }},
		{name: "fig6a", help: "area & fmax vs arity (Fig. 6a)",
			run: func() error { experiments.WriteFig6a(out); return nil }},
		{name: "fig6b", help: "area & fmax vs data width (Fig. 6b)",
			run: func() error { experiments.WriteFig6b(out); return nil }},
		{name: "links", help: "mesochronous link & router area table (Sec. V)",
			run: func() error { experiments.WriteLinkTable(out); return nil }},
		{name: "throughput", help: "raw throughput table (Sec. VII)",
			run: func() error { experiments.WriteThroughput(out); return nil }},
		{name: "sec7", help: "200-connection aelite vs BE comparison (-seed, -freq, -measure, -verbose)", run: func() error {
			cmp, gs, be, err := experiments.Compare(*seed, *freq, *measure, *jobs)
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
		}},
		{name: "power", help: "schedule-driven router sleep study (extension)", run: func() error {
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
		}},
		{name: "hetero", help: "HSDF model of the wrapped NoC (extension)",
			run: func() error { return experiments.WriteHeterochronous(out) }},
		{name: "recovery", help: "bit-flip recovery campaign (reliability layer)", run: func() error {
			cfg := experiments.DefaultRecoveryConfig()
			cfg.Seed = *seed
			fmt.Fprintf(out, "Bit-flip recovery campaign: %d points, bitflip %.4f drop %.4f per link\n",
				cfg.Points, cfg.BitFlip, cfg.Drop)
			return experiments.WriteRecovery(out, cfg, *jobs)
		}},
		{name: "reconfig", help: "online reconfiguration: admission control, undisturbed service, self-healing reroute (-out)", run: func() error {
			cfg := experiments.DefaultReconfigConfig()
			cfg.Seed = *seed
			sum, err := experiments.ReconfigStudy(cfg, *jobs)
			if err != nil {
				return err
			}
			return study(
				func(w io.Writer) { fmt.Fprint(w, experiments.RenderReconfig(sum)) },
				func(w io.Writer) error { return experiments.WriteReconfigJSON(w, sum) },
				func() error {
					if sum.Violations > 0 {
						return fmt.Errorf("%d violations: %s", sum.Violations, sum.Failures[0])
					}
					return nil
				})
		}},
		{name: "scale", help: "generator families x mesh sizes x allocators: success, bound tightness, audit violations, replay, allocator runtimes on stderr (-smoke, -out)", run: func() error {
			cfg := experiments.DefaultScaleConfig()
			if *smoke {
				cfg = experiments.SmokeScaleConfig()
			}
			cfg.Seed = *seed
			rep, err := experiments.ScaleStudy(cfg, *jobs)
			if err != nil {
				return err
			}
			// Allocator runtimes are wall-clock: a side channel, never
			// the artifact.
			rep.WriteAllocTimes(os.Stderr)
			return study(rep.Render, rep.WriteJSON, rep.Verify)
		}},
		{name: "compare", help: "identical workloads through every registered backend: throughput, latency, bounds, area (-smoke, -out)", run: func() error {
			cfg := experiments.DefaultCompareConfig()
			if *smoke {
				cfg = experiments.SmokeCompareConfig()
			}
			cfg.Seed = *seed
			rep, err := experiments.CompareStudy(cfg, *jobs)
			if err != nil {
				return err
			}
			return study(rep.Render, rep.WriteJSON, rep.Verify)
		}},
		{name: "conformance", help: "guarantee-conformance sweep (audit layer)", run: func() error {
			cfg := experiments.DefaultConformanceConfig()
			cfg.Seed = *seed
			fmt.Fprintf(out, "Guarantee-conformance sweep: tables %v under all clocking modes, every flit audited\n",
				cfg.TableSizes)
			return experiments.WriteConformance(out, cfg, *jobs)
		}},
		{name: "scan", help: "best-effort frequency scan (>900 MHz crossover)", run: func() error {
			points, crossover, err := experiments.FrequencyScan(*seed, nil, *measure, *jobs)
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
		}},
		{name: "area", help: "query the area/frequency model for one router (-arity, -width, -target, -custom-fifo)", query: true,
			run: func() error { experiments.WriteAreaQuery(out, *arity, *width, *target, *custom); return nil }},
	}
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintf(w, "Usage: %s [flags] [experiment]\n\nExperiments (default all):\n", tool)
		for _, e := range exps {
			fmt.Fprintf(w, "  %-12s %s\n", e.name, e.help)
		}
		fmt.Fprintf(w, "  %-12s %s\n\nFlags (before the experiment):\n", "all", "every experiment above but area, a query")
		flag.PrintDefaults()
	}
	flag.Parse()
	// Malformed invocations are rejected up front with one-line
	// diagnostics and exit code 2, matching aelite-sim's contract.
	if err := core.CheckWindow(experiments.Sec7WarmupNs, *measure); err != nil {
		os.Exit(cli.Usage(tool, fmt.Errorf("-measure: %w", err)))
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

	cmd := "all"
	if flag.NArg() > 0 {
		cmd = flag.Arg(0)
	}
	var selected []experiment
	for _, e := range exps {
		if cmd == e.name || cmd == "all" && !e.query {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		flag.Usage()
		os.Exit(cli.Usage(tool, fmt.Errorf("unknown experiment %q", cmd)))
	}
	stopProfile, err := profile.Start()
	if err != nil {
		os.Exit(cli.Failure(tool, err))
	}
	defer stopProfile()
	for _, e := range selected {
		if err := e.run(); err != nil {
			stopProfile() // os.Exit skips the deferred call
			os.Exit(cli.Failure(tool, fmt.Errorf("%s: %w", e.name, err)))
		}
		if !e.query {
			fmt.Fprintln(out)
		}
	}
}
