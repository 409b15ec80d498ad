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

// The guarantee-conformance sweep audits one fixed workload under every
// combination of slot-table size and clocking mode, each point paired with
// a perturbed re-execution that oversubscribes every interfering
// connection and diffs the watched connection's delivery timeline for byte
// identity — the paper's composability and worst-case-bound claims checked
// against every simulated flit. It runs tables 8, 16 and 32 under all
// three clocking modes for 20 µs each, interferers pushed to 8x their
// reservation in the paired run.
var (
	conformanceTableSizes = []int{8, 16, 32}
	conformanceModes      = []core.Mode{core.Synchronous, core.Mesochronous, core.Asynchronous}
)

const (
	conformanceMeasureNs     = 20000
	conformancePerturbFactor = 8.0
)

// conformanceRun is one audited execution's verdict.
type conformanceRun struct {
	violations int64
	byKind     map[fault.Kind]int64
	summary    string
	watchedRx  int64
}

// conformancePoint audits one (table size, mode) combination on the
// network an unwatched run builds — flit links in synchronous mode, and
// no fault reporter, so a link or router out of envelope panics: a
// baseline run whose every flit the auditor holds to its bound, its
// source rate and the allocation's slot tables at every NI and router
// output, a perturbed run with the interferers oversubscribed (tolerated,
// since the perturbation is deliberate), and a byte-identity diff of the
// watched connection's delivery instants. It returns a one-line verdict,
// or an error naming the first broken guarantee.
func conformancePoint(seed int64, tableSize int, mode core.Mode) (string, error) {
	var runs [2]conformanceRun
	res, err := audit.Isolation(2, func(perturbed bool) (audit.Timelines, error) {
		m := topology.NewMesh(3, 2, 2)
		uc := spec.Random(spec.RandomConfig{
			Name: "conformance", Seed: seed, IPs: 8, Apps: 2, Conns: 6,
			MinRateMBps: 10, MaxRateMBps: 60,
			MinLatencyNs: 500, MaxLatencyNs: 1500,
		})
		spec.MapIPsByTraffic(uc, m)
		n, err := core.Build(m, uc, core.Config{Mode: mode, TableSize: tableSize})
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
		n.Run(0, conformanceMeasureNs)

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

// conformanceSweep fans every (table size, mode) point of the workload
// drawn from seed across up to jobs workers and returns the rendered
// verdicts in sweep order, table-major — byte-identical at every worker
// count. Any broken guarantee aborts the sweep with an error naming the
// point and the first diagnostic.
func conformanceSweep(seed int64, jobs int) ([]string, error) {
	n := len(conformanceModes)
	return parallel.Map(jobs, len(conformanceTableSizes)*n, func(i int) (string, error) {
		return conformancePoint(seed, conformanceTableSizes[i/n], conformanceModes[i%n])
	})
}

// WriteConformance writes a header line and runs the sweep on the workload
// drawn from seed, writing the concatenated verdicts — the conformance
// artefact recorded in EXPERIMENTS.md and gated in CI.
func WriteConformance(w io.Writer, seed int64, jobs int) error {
	fmt.Fprintf(w, "Guarantee-conformance sweep: tables %v under all clocking modes, every flit audited\n", conformanceTableSizes)
	lines, err := conformanceSweep(seed, jobs)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, strings.Join(lines, ""))
	return err
}
