package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/parallel"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/trace"
)

// RecoveryConfig parameterises the bit-flip recovery campaign: a sweep of
// independent fault-injection points over one fixed workload with the
// end-to-end reliability shell enabled. Each point arms seeded per-link
// bit-flip and flit-drop processes (fault seed = Seed + point index) and
// measures how the retransmission machinery heals the losses.
type RecoveryConfig struct {
	Seed      int64   // workload seed; point i uses fault seed Seed+i
	Points    int     // independent campaign points
	BitFlip   float64 // per-phit bit-flip probability on every link
	Drop      float64 // per-flit drop probability on every link
	MeasureNs float64 // simulated time per point
}

// DefaultRecoveryConfig is the documented campaign: four points at a 1%
// phit corruption rate (roughly 2% of flits, each flit exposing two
// corruptible phits) plus a light flit-drop process.
func DefaultRecoveryConfig() RecoveryConfig {
	return RecoveryConfig{Seed: Sec7Seed, Points: 4, BitFlip: 0.01, Drop: 0.001, MeasureNs: 40000}
}

// recoveryPoint builds the workload, arms point i's fault processes, runs
// the campaign and renders its summary. The render is fully determined by
// the configuration: the simulation is single-threaded and seeded, so the
// same point yields byte-identical text at every sweep worker count.
func recoveryPoint(cfg RecoveryConfig, i int) (string, error) {
	m := topology.NewMesh(3, 2, 2)
	uc := spec.Random(spec.RandomConfig{
		Name: "recovery", Seed: cfg.Seed, IPs: 10, Apps: 2, Conns: 10,
		MinRateMBps: 20, MaxRateMBps: 120,
		MinLatencyNs: 300, MaxLatencyNs: 900,
	})
	spec.MapIPsByTraffic(uc, m)
	col := fault.NewCollector()
	ncfg := core.Config{Mode: core.Mesochronous, Probes: true, Reliable: true, FaultReporter: col}
	n, err := core.Build(m, uc, ncfg)
	if err != nil {
		return "", err
	}
	bus := trace.NewBus()
	mx := trace.NewMetrics(bus)
	n.AttachTracer(bus)

	plan := &fault.Plan{Seed: cfg.Seed + int64(i), Rates: []fault.RateRule{
		{BitFlip: cfg.BitFlip, Drop: cfg.Drop},
	}}
	campaign := fault.NewCampaign(plan, col)
	if err := campaign.Arm(n.Engine(), n.FaultTargets()); err != nil {
		return "", err
	}
	rep := n.Run(0, cfg.MeasureNs)

	var b strings.Builder
	fmt.Fprintf(&b, "-- recovery point %d: bitflip %.4f drop %.4f fault seed %d --\n",
		i, cfg.BitFlip, cfg.Drop, cfg.Seed+int64(i))
	var flips, drops int64
	for _, o := range campaign.Summarize().RateLinks {
		flips += o.BitsFlipped
		drops += o.FlitsDropped
	}
	fmt.Fprintf(&b, "faults injected: %d bits flipped, %d flits dropped; violations: %d\n",
		flips, drops, col.Total())
	fmt.Fprintf(&b, "%6s %6s %9s %5s %6s %5s %5s %4s %9s %9s %9s  %s\n",
		"conn", "sent", "delivered", "crc", "rexmit", "acks", "rec", "quar",
		"recMinNs", "recMeanNs", "recMaxNs", "payload")
	for _, c := range rep.Conns {
		tx, ok := n.ReliableTxStats(c.Conn)
		if !ok {
			return "", fmt.Errorf("recovery: connection %d has no reliability shell", c.Conn)
		}
		cm := mx.Conn(c.Conn)
		quar := 0
		if tx.Quarantined {
			quar = 1
		}
		// Acceptance check per connection: every sent word is delivered
		// or still awaiting (re)transmission in the go-back-N window.
		payload := "complete"
		if missing := cm.Sent - c.Delivered; quar == 1 {
			payload = "quarantined"
		} else if missing < 0 || missing > int64(tx.OutstandingWords) {
			payload = fmt.Sprintf("LOST %d words", missing)
		}
		recMin, recMean, recMax := 0.0, 0.0, 0.0
		if cm.Recovery.N() > 0 {
			recMin, recMean, recMax = cm.Recovery.Min(), cm.Recovery.Mean(), cm.Recovery.Max()
		}
		fmt.Fprintf(&b, "%6d %6d %9d %5d %6d %5d %5d %4d %9.1f %9.1f %9.1f  %s\n",
			c.Conn, cm.Sent, c.Delivered, cm.CRCDrops, cm.Retransmits, cm.Acks,
			cm.Recovery.N(), quar, recMin, recMean, recMax, payload)
	}
	return b.String(), nil
}

// RecoverySweep fans cfg.Points independent campaign points across up to
// jobs workers and returns the rendered summaries keyed by point index —
// byte-identical at every worker count.
func RecoverySweep(cfg RecoveryConfig, jobs int) ([]string, error) {
	return parallel.Map(jobs, cfg.Points, func(i int) (string, error) {
		return recoveryPoint(cfg, i)
	})
}

// WriteRecovery runs the sweep and writes the concatenated point
// summaries — the recovery-campaign artefact recorded in EXPERIMENTS.md.
func WriteRecovery(w io.Writer, cfg RecoveryConfig, jobs int) error {
	summaries, err := RecoverySweep(cfg, jobs)
	if err != nil {
		return err
	}
	for _, s := range summaries {
		if _, err := io.WriteString(w, s); err != nil {
			return err
		}
	}
	return nil
}
