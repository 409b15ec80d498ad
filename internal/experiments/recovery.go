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

// The bit-flip recovery campaign is a sweep of independent
// fault-injection points over one fixed workload with the end-to-end
// reliability shell enabled. Each point arms seeded per-link bit-flip and
// flit-drop processes (fault seed = workload seed + point index) and
// measures, over 40 µs, how the retransmission machinery heals the losses.
// It runs four points at a 1% phit corruption rate (roughly 2% of flits,
// each flit exposing two corruptible phits) plus a light flit-drop process.
const (
	recoveryPoints    = 4
	recoveryBitFlip   = 0.01  // per-phit bit-flip probability on every link
	recoveryDrop      = 0.001 // per-flit drop probability on every link
	recoveryMeasureNs = 40000
)

// recoveryPoint builds the workload drawn from seed, arms point i's fault
// processes, runs the campaign and renders its summary. The render is
// fully determined by seed and i: the simulation is single-threaded and
// seeded, so the same point yields byte-identical text at every sweep
// worker count.
func recoveryPoint(seed int64, i int) (string, error) {
	m := topology.NewMesh(3, 2, 2)
	uc := spec.Random(spec.RandomConfig{
		Name: "recovery", Seed: seed, IPs: 10, Apps: 2, Conns: 10,
		MinRateMBps: 20, MaxRateMBps: 120,
		MinLatencyNs: 300, MaxLatencyNs: 900,
	})
	spec.MapIPsByTraffic(uc, m)
	col := fault.NewCollector()
	ncfg := core.Config{Mode: core.Mesochronous, Reliable: true, FaultReporter: col}
	n, err := core.Build(m, uc, ncfg)
	if err != nil {
		return "", err
	}
	bus := trace.NewBus()
	mx := trace.NewMetrics(bus)
	n.AttachTracer(bus)

	plan := &fault.Plan{Seed: seed + int64(i), Rates: []fault.RateRule{
		{BitFlip: recoveryBitFlip, Drop: recoveryDrop},
	}}
	campaign := fault.NewCampaign(plan, col)
	if err := campaign.Arm(n.Engine(), n.FaultTargets()); err != nil {
		return "", err
	}
	rep := n.Run(0, recoveryMeasureNs)

	var b strings.Builder
	fmt.Fprintf(&b, "-- recovery point %d: bitflip %.4f drop %.4f fault seed %d --\n",
		i, recoveryBitFlip, recoveryDrop, seed+int64(i))
	var flips, drops int64
	for _, o := range campaign.Summarize().RateLinks {
		flips += o.BitsFlipped
		drops += o.FlitsDropped
	}
	fmt.Fprintf(&b, "faults injected: %d bits flipped, %d flits dropped; violations: %d\n",
		flips, drops, col.Total())
	fmt.Fprintf(&b, "%6s %6s %9s %5s %6s %5s %5s %4s %9s %9s %9s  %s\n",
		"conn", "sent", "delivered", "drops", "rexmit", "acks", "rec", "quar",
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
			c.Conn, cm.Sent, c.Delivered, cm.ReliabilityDrops, cm.Retransmits, cm.Acks,
			cm.Recovery.N(), quar, recMin, recMean, recMax, payload)
	}
	return b.String(), nil
}

// WriteRecovery writes a header line, fans the campaign's points on the
// workload drawn from seed across up to jobs workers and writes their
// summaries in point order — the recovery-campaign artefact recorded in
// EXPERIMENTS.md, byte-identical at every worker count.
func WriteRecovery(w io.Writer, seed int64, jobs int) error {
	fmt.Fprintf(w, "Bit-flip recovery campaign: %d points, bitflip %.4f drop %.4f per link\n",
		recoveryPoints, recoveryBitFlip, recoveryDrop)
	summaries, err := parallel.Map(jobs, recoveryPoints, func(i int) (string, error) {
		return recoveryPoint(seed, i)
	})
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, strings.Join(summaries, ""))
	return err
}
