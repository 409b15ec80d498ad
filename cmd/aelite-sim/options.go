package main

import (
	"errors"
	"flag"
	"fmt"
	"runtime"

	"repro/internal/backend"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/slots"
)

// options holds the parsed flags; the package comment documents each.
type options struct {
	workload  backend.Workload
	backend   string
	mode      string
	warmup    float64
	measure   float64
	tx        bool
	probes    bool
	faults    string
	faultSeed int64
	reliable  bool
	bitflip   float64
	drop      float64
	strict    bool
	skewPS    int64
	runs      int
	jobs      int
	audit     bool
	reconfig  string
	alloc     string

	traceOut   string
	metricsOut string
	profile    cli.Profile

	// Resolved from -backend, -mode and -reconfig by validate.
	bk       backend.Backend
	clocking core.Mode
	steps    []reconfigStep
}

func (o *options) register(fs *flag.FlagSet) {
	cli.RegisterWorkload(fs, &o.workload)
	fs.StringVar(&o.alloc, "alloc", "greedy", "slot allocator: greedy | ripup")
	fs.StringVar(&o.backend, "backend", "aelite", "aelite | aethereal (alias: be) | routerless")
	fs.StringVar(&o.mode, "mode", "synchronous", "synchronous|mesochronous|asynchronous")
	fs.Float64Var(&o.warmup, "warmup", 10000, "warm-up in ns")
	fs.Float64Var(&o.measure, "measure", 50000, "measurement window in ns")
	fs.BoolVar(&o.tx, "tx", false, "transactional traffic")
	fs.BoolVar(&o.probes, "probes", false, "TDM verification probes")
	fs.StringVar(&o.faults, "faults", "", "fault campaign spec")
	fs.Int64Var(&o.faultSeed, "fault-seed", 1, "seed for random fault events")
	fs.BoolVar(&o.reliable, "reliable", false, "end-to-end reliability shell on every NI port")
	fs.Float64Var(&o.bitflip, "bitflip-rate", 0, "per-phit payload bit-flip probability on every link (0..1)")
	fs.Float64Var(&o.drop, "drop-rate", 0, "per-flit drop probability on every link (0..1)")
	fs.BoolVar(&o.strict, "strict", false, "fail fast on the first envelope violation")
	fs.Int64Var(&o.skewPS, "skew-ps", 0, "mesochronous tile-skew override in ps")
	fs.IntVar(&o.runs, "runs", 1, "fault-campaign sweep: campaigns with consecutive fault seeds")
	fs.IntVar(&o.jobs, "j", runtime.NumCPU(), "parallel workers for -runs sweeps")
	fs.BoolVar(&o.audit, "audit", false, "check every flit against the analytical guarantee contracts")
	fs.StringVar(&o.reconfig, "reconfig", "", "run-time reconfiguration script (close@TIMEns:CONN;open@TIMEns:SRC:DST:MBPS:LATNS;...)")
	fs.StringVar(&o.traceOut, "trace-out", "", "write Chrome trace-event JSON to this file")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write aggregated metrics to this file (.csv selects CSV)")
	o.profile.Register(fs)
}

// rateFaults reports whether a seeded rate process is armed.
func (o *options) rateFaults() bool { return o.bitflip > 0 || o.drop > 0 }

// campaign reports whether the run is a fault campaign: it then carries
// the ownership probes and a violation collector, and prints the campaign
// summary in place of the verdict.
func (o *options) campaign() bool { return o.faults != "" || o.skewPS != 0 || o.rateFaults() }

// faultPlan assembles the campaign plan for one run: the event spec (if
// any) parsed under the given seed, plus the all-links rate rules.
func (o *options) faultPlan(faultSeed int64) (*fault.Plan, error) {
	plan := &fault.Plan{Seed: faultSeed}
	if o.faults != "" {
		var err error
		plan, err = fault.ParseSpec(o.faults, faultSeed)
		if err != nil {
			return nil, err
		}
	}
	if o.rateFaults() {
		plan.Rates = append(plan.Rates, fault.RateRule{BitFlip: o.bitflip, Drop: o.drop})
	}
	return plan, nil
}

// validate rejects malformed flag combinations before anything is built
// or any output file is opened, so every misuse gets a one-line diagnostic
// and exit code 2 instead of a late panic or a silently ignored value. It
// resolves the -backend and -mode names and the -reconfig script on the
// way.
func (o *options) validate() (err error) {
	if err := o.workload.Validate(); err != nil {
		return err
	}
	if err := core.CheckWindow(o.warmup, o.measure); err != nil {
		return fmt.Errorf("-warmup/-measure: %w", err)
	}
	alloc, err := slots.ByName(o.alloc)
	if err != nil {
		return fmt.Errorf("-alloc: %w", err)
	}
	name := o.backend
	if name == "be" {
		name = "aethereal" // compatibility alias for the Æthereal GS+BE baseline
	}
	if o.bk, err = backend.ByName(name); err != nil {
		return fmt.Errorf("-backend: %w", err)
	}
	if o.clocking, err = core.ParseMode(o.mode); err != nil {
		return err
	}
	// What only the aelite core models is rejected on the other backends,
	// never ignored.
	if o.backend != "aelite" {
		switch {
		case o.clocking != core.Synchronous:
			return fmt.Errorf("-backend %s is single-clock; -mode %s needs the aelite backend", o.backend, o.mode)
		case o.reliable || o.rateFaults():
			return fmt.Errorf("-reliable/-bitflip-rate/-drop-rate need the aelite backend (got %q)", o.backend)
		case o.probes || alloc != slots.Greedy{}:
			return fmt.Errorf("-probes/-alloc need the aelite backend (got %q)", o.backend)
		case o.faults != "":
			return errors.New("fault campaigns need the aelite backend")
		case o.reconfig != "":
			return fmt.Errorf("-reconfig needs the aelite backend (got %q)", o.backend)
		}
	}
	if o.skewPS < 0 {
		return fmt.Errorf("-skew-ps %d is negative; skew is a magnitude in picoseconds", o.skewPS)
	}
	if o.skewPS != 0 && o.clocking != core.Mesochronous {
		return fmt.Errorf("-skew-ps applies only to -mode mesochronous (got %q)", o.mode)
	}
	if o.faults != "" {
		if _, err := fault.ParseSpec(o.faults, o.faultSeed); err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
	}
	if err := (fault.RateRule{BitFlip: o.bitflip, Drop: o.drop}).Validate(); err != nil {
		return fmt.Errorf("-bitflip-rate/-drop-rate: %w", err)
	}
	// Every backend emits the traced flit lifecycle, but only
	// bounds-carrying backends have contracts for the auditor to check.
	if o.audit && !o.bk.HasBounds() {
		return fmt.Errorf("-audit checks analytical guarantee contracts and backend %q has none (best effort)", o.backend)
	}
	if o.audit && o.runs > 1 {
		return fmt.Errorf("-audit attaches to a single run and cannot serve a -runs sweep")
	}
	if o.runs < 1 {
		return fmt.Errorf("-runs %d must be at least 1", o.runs)
	}
	if o.jobs < 1 {
		return fmt.Errorf("-j %d must be at least 1", o.jobs)
	}
	if o.reconfig != "" {
		if o.clocking == core.Asynchronous {
			return fmt.Errorf("-reconfig cannot serve asynchronous mode (slot counters are token-indexed)")
		}
		if o.runs > 1 {
			return fmt.Errorf("-reconfig scripts one run and cannot serve a -runs sweep")
		}
		if o.steps, err = parseReconfigScript(o.reconfig); err != nil {
			return fmt.Errorf("-reconfig: %w", err)
		}
	}
	if o.runs > 1 {
		if o.faults == "" && !o.rateFaults() {
			return fmt.Errorf("-runs %d sweeps fault seeds and needs -faults, -bitflip-rate or -drop-rate", o.runs)
		}
		if o.traceOut != "" || o.metricsOut != "" {
			return fmt.Errorf("-trace-out/-metrics-out write one file and cannot serve a -runs sweep")
		}
	}
	return nil
}
