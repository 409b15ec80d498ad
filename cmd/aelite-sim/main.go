// Command aelite-sim runs a use case through the cycle-accurate simulator
// — the aelite guaranteed-service network (synchronous, mesochronous or
// asynchronous), the Æthereal best-effort baseline, or the routerless
// ring-overlay fabric — and prints the per-connection report. Every
// backend takes one path: the flags fill one backend.Params, the
// internal/backend registry builds the network, one bus carries the trace,
// metrics and audit sinks, and one renderer prints the report, the audit
// summary, the campaign summary and the verdict in that order. Flags only
// the aelite core models (fault campaigns, -reconfig, -reliable,
// -probes, -alloc, the clocking modes) are rejected up front on any other
// backend instead of being ignored.
//
// Usage:
//
//	aelite-sim -spec usecase.json [flags]
//	aelite-sim -random N [flags]
//	aelite-sim -scenario FAMILY -conns N [flags]
//
// Flags:
//
//	-scenario F    generated workload family: uniform | hotspot | transpose |
//	               multimedia | dataflow (internal/scenario; deterministic in
//	               -seed, rates replay-admissible by default)
//	-conns N       connection count for -scenario
//	-alloc A       slot allocator: greedy | ripup (default greedy)
//	-backend B     aelite | aethereal (alias: be) | routerless
//	-mode M        synchronous | mesochronous | asynchronous (aelite only)
//	-freq MHZ      network frequency (default 500)
//	-warmup NS     warm-up before measurement (default 10000)
//	-measure NS    measurement window (default 50000)
//	-tx            transactional traffic instead of CBR: whole transactions
//	               at line rate, 4, 8 or 16 words by rate class, the same
//	               on every backend
//	-probes        enable dynamic TDM verification probes (aelite only)
//	-faults SPEC   fault campaign: op@TIMEns:target[:param];... or random:N
//	-fault-seed N  seed for random fault events (same seed, same campaign)
//	-reliable      wrap every NI port in the end-to-end reliability shell:
//	               CRC-protected flits, go-back-N retransmission and link
//	               quarantine (aelite only)
//	-bitflip-rate P  per-phit payload bit-flip probability on every link,
//	               0..1; a seeded rate process on top of -faults events
//	-drop-rate P   per-flit drop probability on every link, 0..1
//	-strict        fail fast on the first envelope violation instead of
//	               collecting violations and degrading gracefully
//	-skew-ps PS    checkerboard tile-skew override in mesochronous mode;
//	               values past half a period leave the paper's envelope
//	-runs N        fault-campaign sweep: run N campaigns with consecutive
//	               fault seeds (-fault-seed, +1, +2, ...), each on its own
//	               freshly built network, and print the per-run reports and
//	               summaries in seed order (requires -faults)
//	-j N           parallel workers for -runs sweeps (default all CPUs;
//	               output is byte-identical at every worker count)
//	-reconfig S    run-time reconfiguration script: semicolon-separated
//	               actions, each close@TIMEns:CONN or
//	               open@TIMEns:SRCIP:DSTIP:MBPS:LATNS, applied inside the
//	               measurement window (TIME is relative to its start). A
//	               close drains and releases the connection; an open runs
//	               admission control and either admits the request with its
//	               full guarantees under a fresh connection id or prints the
//	               typed rejection reason (no-path, no-slots,
//	               bound-infeasible, ...) and changes nothing. Running
//	               connections are never disturbed either way. With -audit
//	               the auditor is resynchronised after every action. aelite
//	               only, single runs, not asynchronous mode
//	-audit         attach the guarantee-conformance auditor: every flit is
//	               checked against the connection's analytical worst-case
//	               latency and throughput contract, slot ownership and
//	               in-order delivery; violations print one-line diagnostics
//	               and exit non-zero (with -strict the first one fails
//	               fast); bounds-carrying backends (aelite, routerless)
//	               only, single runs only
//	-trace-out F   write a Chrome trace-event JSON of every flit lifecycle
//	               event (load in Perfetto or chrome://tracing)
//	-metrics-out F write aggregated per-connection/per-component metrics;
//	               a .csv suffix selects CSV, anything else JSON
//	-pprof F       write a CPU profile of the simulation run
//
// A campaign run (-faults or -skew-ps) prints the connection report
// followed by the deterministic campaign summary. Any fatal envelope
// violation (strict mode) or internal failure exits non-zero with a
// one-line diagnostic instead of a raw panic trace; invalid flag
// combinations are rejected up front with exit code 2.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/audit"
	"repro/internal/cli"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/parallel"
	"repro/internal/phit"
	"repro/internal/trace"
)

func main() {
	os.Exit(mainCode(os.Args[1:], os.Stdout))
}

// mainCode is main without the process: it parses and validates args,
// runs, prints to stdout and returns the exit code.
func mainCode(args []string, stdout io.Writer) int {
	var o options
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o.register(fs)
	// -h prints the flag list; a malformed or undefined flag gets the same
	// one-line diagnostic as any other usage error, without the list, whose
	// -j default is the host's CPU count.
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		fs.SetOutput(cli.Stderr)
		fs.Usage()
		return cli.ExitOK
	} else if err != nil {
		return cli.Usage(tool, err)
	}
	if err := o.validate(); err != nil {
		return cli.Usage(tool, err)
	}
	return run(o, stdout)
}

// run opens the output files, executes the simulation — one run, or a
// -runs sweep — and returns the process exit code. Envelope violations in
// strict mode (and any internal failure) surface as panics; they are
// condensed into a one-line diagnostic rather than a stack trace.
func run(o options, stdout io.Writer) (code int) {
	defer func() {
		if r := recover(); r != nil {
			code = cli.Fatal(tool, r)
		}
	}()

	stopProfile, err := o.profile.Start()
	if err != nil {
		return fail(err)
	}
	defer stopProfile()

	if o.runs > 1 {
		return runCampaignSweep(o, stdout)
	}

	// Output files are opened before anything is built or simulated, so an
	// unwritable path fails in milliseconds instead of after a full run.
	traceFile, err := createOut(o.traceOut)
	if err != nil {
		return fail(err)
	}
	defer traceFile.Close()
	metricsFile, err := createOut(o.metricsOut)
	if err != nil {
		return fail(err)
	}
	defer metricsFile.Close()

	code, err = simulate(o, o.faultSeed, stdout, traceFile, metricsFile)
	for _, f := range []*os.File{traceFile, metricsFile} {
		if f != nil && err == nil {
			err = f.Close()
		}
	}
	if err != nil {
		return fail(err)
	}
	return code
}

// createOut creates the file behind an output flag; an unset flag (empty
// path) yields nil.
func createOut(path string) (*os.File, error) {
	if path == "" {
		return nil, nil
	}
	return os.Create(path)
}

// simulate is the one build-and-run path: it builds the use case on the
// selected backend through the seam, wires the trace bus and its sinks,
// runs once and renders to stdout — report, audit summary, campaign
// summary, verdict. The Chrome trace and the metrics go to traceW and
// metricsW when -trace-out / -metrics-out are set. It returns the exit
// code of a completed run (0, or 1 for a missed requirement or an audit
// violation), or the error that stopped it.
func simulate(o options, faultSeed int64, stdout, traceW, metricsW io.Writer) (int, error) {
	if _, _, err := o.workload.Layout(); err != nil {
		return 0, fmt.Errorf("%w (allocation-only planning via aelite-exp scale has no such cap)", err)
	}
	m, uc, p, _, err := o.workload.Build(0)
	if err != nil {
		return 0, err
	}
	// Campaigns always carry the TDM ownership probes: a corrupted header
	// re-routes a packet into slots reserved for someone else, which only
	// the allocation-aware probes can attribute.
	campaign := o.campaign()
	p.Mode, p.Allocator, p.Transactional = o.clocking, o.alloc, o.tx
	p.Probes, p.Reliable, p.SkewOverridePS = o.probes || campaign, o.reliable, o.skewPS
	// In a campaign, a collector switches every envelope check from
	// fail-fast panic to graceful violation recording; -strict keeps the
	// panics so the first violation halts the run.
	var collector *fault.Collector
	if campaign && !o.strict {
		collector = fault.NewCollector()
		p.FaultReporter = collector
	}
	inst, err := o.bk.Build(m, uc, p)
	if err != nil {
		return 0, err
	}
	// Campaigns and reconfiguration act on the aelite core network itself;
	// validate confines their flags to the aelite backend.
	var net *core.Network
	if a, ok := inst.(interface{ Network() *core.Network }); ok {
		net = a.Network()
	}

	// Tracing: one bus feeds the Chrome sink, the metrics sink and the
	// conformance auditor alike.
	period := clock.PeriodFromMHz(p.FreqMHz)
	var chrome *trace.Chrome
	var metrics *trace.Metrics
	var auditor *audit.Auditor
	var auditCol *fault.Collector
	if o.traceOut != "" || o.metricsOut != "" || o.audit {
		bus := trace.NewBus()
		if o.traceOut != "" {
			chrome = trace.NewChrome(bus)
			chrome.SetFlitCycle(phit.FlitWords * int64(period))
		}
		if o.metricsOut != "" {
			metrics = trace.NewMetrics(bus)
		}
		if o.audit {
			// The auditor's reporter is kept separate from the campaign
			// collector: expected fault-campaign violations must never be
			// mixed with guarantee breaches. -strict keeps the fail-fast
			// nil reporter.
			var audRep fault.Reporter
			if !o.strict {
				auditCol = fault.NewCollector()
				audRep = auditCol
			}
			auditor = inst.Audit(bus, audRep, audit.Options{})
		}
		inst.AttachTracer(bus)
	}

	var rep *core.Report
	runOnce := func() (err error) {
		if o.steps == nil {
			rep = inst.Run(o.warmup, o.measure)
			return nil
		}
		rep, err = net.RunTimed(o.warmup, o.measure, reconfigActions(o.steps, auditor, stdout))
		return err
	}
	var summary *fault.Summary
	if campaign {
		plan, err := o.faultPlan(faultSeed)
		if err != nil {
			return 0, err
		}
		var runErr error
		summary, err = fault.Execute(plan, collector, net, func() { runErr = runOnce() })
		if err == nil {
			err = runErr
		}
		if err != nil {
			return 0, err
		}
	} else if err := runOnce(); err != nil {
		return 0, err
	}

	// The "be" alias keeps its historical output: the verdict line only.
	if o.backend != "be" {
		rep.Write(stdout)
	}
	if chrome != nil {
		if _, err := chrome.WriteTo(traceW); err != nil {
			return 0, err
		}
	}
	if metrics != nil {
		mrep := metrics.Report(int64(inst.Engine().Now()), int64(period))
		write := mrep.WriteJSON
		if strings.HasSuffix(o.metricsOut, ".csv") {
			write = mrep.WriteCSV
		}
		if err := write(metricsW); err != nil {
			return 0, err
		}
	}
	code := 0
	if auditor != nil {
		fmt.Fprintln(stdout)
		auditor.WriteSummary(stdout)
		if auditor.Violations() > 0 {
			for _, v := range auditCol.Violations() {
				fmt.Fprintln(cli.Stderr, "aelite-sim: audit:", v)
			}
			code = 1
		}
	}
	// A campaign's product is its summary, not a verdict: it exits 0 even
	// when the injected faults made connections miss their requirements.
	if summary != nil {
		fmt.Fprintln(stdout)
		summary.Write(stdout)
		return code, nil
	}
	if rep.AllMet() {
		fmt.Fprintln(stdout, "\nall requirements met")
		return code, nil
	}
	fmt.Fprintf(stdout, "\n%d requirements MISSED\n", len(rep.Violations()))
	return 1, nil
}

// campaignPoint is one worker of a -runs sweep: one simulate into a
// buffer, on a privately built network, under the given fault seed. A
// strict-mode envelope violation (or any other panic) is returned as an
// error so one failed point cannot tear down the whole sweep.
func campaignPoint(o options, faultSeed int64) (out []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("fatal: %v", r)
		}
	}()
	var b bytes.Buffer
	_, err = simulate(o, faultSeed, &b, nil, nil)
	return b.Bytes(), err
}

// runCampaignSweep fans o.runs campaign points with consecutive fault
// seeds across the worker pool and prints each point's rendered output in
// seed order — byte-identical at every -j value.
func runCampaignSweep(o options, stdout io.Writer) int {
	outs, err := parallel.Map(parallel.Jobs(o.jobs), o.runs, func(i int) ([]byte, error) {
		return campaignPoint(o, o.faultSeed+int64(i))
	})
	if err != nil {
		return fail(err)
	}
	for i, out := range outs {
		fmt.Fprintf(stdout, "== campaign %d/%d (fault seed %d) ==\n", i+1, o.runs, o.faultSeed+int64(i))
		stdout.Write(out)
		if i < len(outs)-1 {
			fmt.Fprintln(stdout)
		}
	}
	return 0
}

// tool names this command in every cli diagnostic.
const tool = "aelite-sim"

func fail(err error) int {
	return cli.Failure(tool, err)
}
