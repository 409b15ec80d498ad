package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/parallel"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/trace"
)

// ConformanceConfig parameterises the guarantee-conformance sweep: one
// fixed workload audited under every combination of slot-table size and
// clocking mode, each point paired with a perturbed re-execution that
// oversubscribes every interfering connection and diffs the watched
// connection's delivery timeline for byte identity — the paper's
// composability and worst-case-bound claims checked against every
// simulated flit.
type ConformanceConfig struct {
	Seed       int64       // workload seed
	TableSizes []int       // TDM slot-table sizes to sweep
	Modes      []core.Mode // clocking modes to sweep
	MeasureNs  float64     // simulated time per run
}

// conformancePerturbFactor is the interferers' offered-load multiplier in
// the paired run.
const conformancePerturbFactor = 8.0

// DefaultConformanceConfig is the documented sweep: tables 8, 16 and 32
// under all three clocking modes, interferers pushed to 8x their
// reservation in the paired run.
func DefaultConformanceConfig() ConformanceConfig {
	return ConformanceConfig{
		Seed:       Sec7Seed,
		TableSizes: []int{8, 16, 32},
		Modes:      []core.Mode{core.Synchronous, core.Mesochronous, core.Asynchronous},
		MeasureNs:  20000,
	}
}

// conformanceRun is one audited execution's verdict.
type conformanceRun struct {
	violations int64
	byKind     map[fault.Kind]int64
	summary    string
	watchedRx  int64
}

// conformancePoint audits one (table size, mode) combination: a baseline
// run with every check armed, a perturbed run with the interferers
// oversubscribed (tolerated, since the perturbation is deliberate), and a
// byte-identity diff of the watched connection's delivery instants. It
// returns a one-line verdict, or an error naming the first broken
// guarantee.
func conformancePoint(cfg ConformanceConfig, tableSize int, mode core.Mode) (string, error) {
	var runs [2]conformanceRun
	res, err := audit.Isolation(2, func(perturbed bool) (audit.Timelines, error) {
		m := topology.NewMesh(3, 2, 2)
		uc := spec.Random(spec.RandomConfig{
			Name: "conformance", Seed: cfg.Seed, IPs: 8, Apps: 2, Conns: 6,
			MinRateMBps: 10, MaxRateMBps: 60,
			MinLatencyNs: 500, MaxLatencyNs: 1500,
		})
		spec.MapIPsByTraffic(uc, m)
		col := fault.NewCollector()
		ncfg := core.Config{
			Mode: mode, TableSize: tableSize,
			Probes: mode != core.Asynchronous, FaultReporter: col,
		}
		n, err := core.Build(m, uc, ncfg)
		if err != nil {
			return nil, err
		}
		bus := trace.NewBus()
		n.AttachTracer(bus)
		audCol := fault.NewCollector()
		a := audit.Attach(n, bus, audCol, audit.Options{TolerateOversubscription: perturbed})

		watched := n.Connections()[0]
		rx := audit.RecordDeliveries(bus, 0, watched)
		if perturbed {
			for _, id := range n.Connections()[1:] {
				other, err := n.Info(id)
				if err != nil {
					return nil, err
				}
				n.Generator(id).SetRateMBps(other.RequiredMBps*conformancePerturbFactor, 4)
			}
		}
		n.Run(0, cfg.MeasureNs)

		idx := 0
		if perturbed {
			idx = 1
		}
		var b strings.Builder
		a.WriteSummary(&b)
		t := rx.Timelines()
		runs[idx] = conformanceRun{
			violations: a.Violations(),
			byKind:     a.ByKind(),
			summary:    b.String(),
			watchedRx:  int64(len(t[watched])),
		}
		return t, nil
	})
	if err != nil {
		return "", fmt.Errorf("conformance table %d %s: %w", tableSize, mode, err)
	}
	for i, label := range []string{"baseline", "perturbed"} {
		if runs[i].violations != 0 {
			return "", fmt.Errorf("conformance table %d %s: %s run broke %d guarantees (%v)\n%s",
				tableSize, mode, label, runs[i].violations, runs[i].byKind, runs[i].summary)
		}
	}
	if runs[0].watchedRx == 0 {
		return "", fmt.Errorf("conformance table %d %s: watched connection delivered nothing", tableSize, mode)
	}
	if !res.Identical {
		return "", fmt.Errorf("conformance table %d %s: composability breach: %s",
			tableSize, mode, res.FirstDiff)
	}
	return fmt.Sprintf("conformance table %2d %-12s: 0 violations, timelines identical under %gx interference (%d delivery instants)\n",
		tableSize, mode, conformancePerturbFactor, res.Words), nil
}

// ConformanceSweep fans every (table size, mode) point across up to jobs
// workers and returns the rendered verdicts in sweep order — byte-identical
// at every worker count. Any broken guarantee aborts the sweep with an
// error naming the point and the first diagnostic.
func ConformanceSweep(cfg ConformanceConfig, jobs int) ([]string, error) {
	type point struct {
		table int
		mode  core.Mode
	}
	var pts []point
	for _, s := range cfg.TableSizes {
		for _, m := range cfg.Modes {
			pts = append(pts, point{s, m})
		}
	}
	return parallel.Map(jobs, len(pts), func(i int) (string, error) {
		return conformancePoint(cfg, pts[i].table, pts[i].mode)
	})
}

// WriteConformance runs the sweep and writes the concatenated verdicts —
// the conformance artefact recorded in EXPERIMENTS.md and gated in CI.
func WriteConformance(w io.Writer, cfg ConformanceConfig, jobs int) error {
	lines, err := ConformanceSweep(cfg, jobs)
	if err != nil {
		return err
	}
	for _, s := range lines {
		if _, err := io.WriteString(w, s); err != nil {
			return err
		}
	}
	return nil
}
