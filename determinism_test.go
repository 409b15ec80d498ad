package repro

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/parallel"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/trace"
)

// sec7TracedReport builds the Section VII mesochronous network from its
// documented seed, runs it briefly under the metrics sink, and returns the
// rendered report.
func sec7TracedReport(t *testing.T) []byte {
	t.Helper()
	m := experiments.Sec7Mesh()
	cfg := core.Config{Transactional: true, Mode: core.Mesochronous, PhaseSeed: 7}
	core.PrepareTopology(m, cfg)
	uc, err := experiments.Sec7UseCase(m, experiments.Sec7Seed)
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.Build(m, uc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bus := trace.NewBus()
	mx := trace.NewMetrics(bus)
	n.AttachTracer(bus)
	eng := n.Engine()
	eng.Run(500 * n.BaseClock().Period)
	var b bytes.Buffer
	if err := mx.Report(int64(eng.Now()), int64(n.BaseClock().Period)).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestSec7BuildDeterminism: two same-seed builds of the full Section VII
// workload must behave identically event for event. This guards the whole
// construction chain against map-iteration-order dependence — historically
// both the placement cost sum in spec.MapIPsByTraffic and the worst-path
// pick in core's allocation varied between same-seed builds, which
// silently broke reproducibility of every Section VII figure.
func TestSec7BuildDeterminism(t *testing.T) {
	r1 := sec7TracedReport(t)
	r2 := sec7TracedReport(t)
	if !bytes.Equal(r1, r2) {
		t.Error("same-seed Section VII builds diverge")
	}
}

// renderScan fixes a byte representation of a frequency scan so serial and
// parallel sweeps can be compared exactly, not approximately.
func renderScan(points []experiments.ScanPoint, crossover float64) []byte {
	var buf bytes.Buffer
	for _, p := range points {
		fmt.Fprintf(&buf, "%.3f %v %d %.6f\n", p.FreqMHz, p.AllMet, p.Violations, p.WorstExcessNs)
	}
	fmt.Fprintf(&buf, "crossover %.3f\n", crossover)
	return buf.Bytes()
}

// TestScanSweepDeterminism: the frequency scan must render byte-identically
// with one worker and with eight. The sweep runner keys results by
// configuration index, each point owns a private engine and there is no
// shared RNG, so worker count and completion order must be unobservable.
func TestScanSweepDeterminism(t *testing.T) {
	freqs := []float64{500, 900, 1000}
	const measureNs = 5000
	p1, c1, err := experiments.FrequencyScan(experiments.Sec7Seed, freqs, measureNs, 1)
	if err != nil {
		t.Fatal(err)
	}
	p8, c8, err := experiments.FrequencyScan(experiments.Sec7Seed, freqs, measureNs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r1, r8 := renderScan(p1, c1), renderScan(p8, c8); !bytes.Equal(r1, r8) {
		t.Errorf("-j 1 and -j 8 scan tables diverge:\n%s\nvs\n%s", r1, r8)
	}
}

// faultSweepSummaries runs a four-point fault-campaign sweep (consecutive
// fault seeds on a small mesochronous mesh) at the given worker count and
// returns the concatenated rendered summaries.
func faultSweepSummaries(t *testing.T, jobs int) []byte {
	t.Helper()
	summaries, err := parallel.Map(jobs, 4, func(i int) (*fault.Summary, error) {
		m := topology.NewMesh(3, 2, 2)
		uc := spec.Random(spec.RandomConfig{
			Name: "sweep", Seed: 5, IPs: 10, Apps: 2, Conns: 10,
			MinRateMBps: 20, MaxRateMBps: 120,
			MinLatencyNs: 300, MaxLatencyNs: 900,
		})
		spec.MapIPsByTraffic(uc, m)
		col := fault.NewCollector()
		cfg := core.Config{Mode: core.Mesochronous, FaultReporter: col}
		n, err := core.Build(m, uc, cfg)
		if err != nil {
			return nil, err
		}
		plan, err := fault.ParseSpec("random:3", 100+int64(i))
		if err != nil {
			return nil, err
		}
		return fault.Execute(plan, col, n, func() { n.Run(5000, 20000) })
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i, s := range summaries {
		fmt.Fprintf(&buf, "-- point %d --\n", i)
		s.Write(&buf)
	}
	return buf.Bytes()
}

// TestFaultSweepDeterminism: same plans, same seeds, different worker
// counts — the campaign summaries must concatenate byte-identically, in
// point order, never completion order.
func TestFaultSweepDeterminism(t *testing.T) {
	r1 := faultSweepSummaries(t, 1)
	r8 := faultSweepSummaries(t, 8)
	if !bytes.Equal(r1, r8) {
		t.Errorf("-j 1 and -j 8 fault sweeps diverge:\n%s\nvs\n%s", r1, r8)
	}
}

// recoverySummaries renders the bit-flip recovery campaign on seed 77's
// workload at the given worker count.
func recoverySummaries(t *testing.T, jobs int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := experiments.WriteRecovery(&buf, 77, jobs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRecoverySweepDeterminism: the recovery campaign's summaries — fault
// tallies, retransmission counts and recovery-latency statistics — must
// concatenate byte-identically across same-seed reruns and across worker
// counts. Recovery timing depends on seeded per-link fault processes and
// per-connection timeout bookkeeping, so this pins the whole reliability
// layer's scheduling down to the picosecond.
func TestRecoverySweepDeterminism(t *testing.T) {
	r1 := recoverySummaries(t, 1)
	if rerun := recoverySummaries(t, 1); !bytes.Equal(r1, rerun) {
		t.Errorf("same-seed reruns diverge:\n%s\nvs\n%s", r1, rerun)
	}
	r8 := recoverySummaries(t, 8)
	if !bytes.Equal(r1, r8) {
		t.Errorf("-j 1 and -j 8 recovery sweeps diverge:\n%s\nvs\n%s", r1, r8)
	}
}

// reconfigRender runs the full online-reconfiguration study — paired
// isolation runs with a mid-run close + admission, the typed-rejection
// battery and the quarantine-heal scenario — at the given worker count
// and returns the rendered summary.
func reconfigRender(t *testing.T, jobs int) []byte {
	t.Helper()
	sum, err := experiments.ReconfigStudy(experiments.Sec7Seed, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Violations != 0 {
		t.Fatalf("reconfig study violated its own gates: %v", sum.Failures)
	}
	return []byte(experiments.RenderReconfig(sum))
}

// TestReconfigStudyDeterminism: mid-run connection closes and admissions
// change the event population, so they are the part of the study most
// likely to leak worker count or map order into results. The rendered
// summary — survivor word counts, rejection details, heal latencies —
// must be byte-identical across same-config reruns and across -j 1 / -j 8.
func TestReconfigStudyDeterminism(t *testing.T) {
	r1 := reconfigRender(t, 1)
	if rerun := reconfigRender(t, 1); !bytes.Equal(r1, rerun) {
		t.Errorf("same-config reruns diverge:\n%s\nvs\n%s", r1, rerun)
	}
	r8 := reconfigRender(t, 8)
	if !bytes.Equal(r1, r8) {
		t.Errorf("-j 1 and -j 8 reconfig studies diverge:\n%s\nvs\n%s", r1, r8)
	}
}
