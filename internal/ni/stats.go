package ni

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/replay"
	"repro/internal/stats"
)

// ConnStats records one terminating connection's measured behaviour: the
// report statistics every backend keeps the same way. Latency is measured
// per payload word from acceptance into the source NI's IP-side FIFO to
// arrival at the destination, in nanoseconds — the same span the paper's
// requirements cover.
//
// A ConnStats also takes part in hyperperiod replay for the component
// that owns it: Mark snapshots it at a boundary, Shift fast-forwards it by
// whole epochs, and between a Mark and the next Shift or Reset it logs the
// latency samples of the epoch. Nothing is logged before the first Mark,
// so a run that never replays pays one branch per word and no memory.
type ConnStats struct {
	Delivered int64
	Latency   stats.Histogram
	// FirstAt and LastAt are the arrival instants of the first and last
	// delivered word. They stay in exact picoseconds (converted to ns only
	// for throughput) so a replay shift moves LastAt without drift;
	// FirstAt always precedes the replayed epochs and never moves.
	FirstAt, LastAt clock.Time

	// everDelivered says a word has arrived since the run began; Reset
	// keeps it. The rest is the boundary snapshot taken by the last Mark
	// and the per-epoch deltas since the one before.
	everDelivered          bool
	logging                bool
	mEverDelivered         bool
	mDelivered, dDelivered int64
	// epoch holds the latency samples of the epoch the last Mark closed,
	// filling those delivered since; the two swap at each Mark.
	epoch, filling []float64
}

// Record counts one payload word arriving at now that was injected at
// injected.
func (c *ConnStats) Record(now, injected clock.Time) {
	lat := float64(now-injected) / float64(clock.Nanosecond)
	c.Latency.Add(lat)
	if c.logging {
		c.filling = append(c.filling, lat)
	}
	c.Delivered++
	c.LastAt = now
	if c.Delivered == 1 {
		c.FirstAt = now
	}
	c.everDelivered = true
}

// Reset clears the measurements (typically after warm-up). It ends the
// boundary snapshot and the epoch log with them, so no sample recorded
// before the reset can reach the fresh histogram through a later Shift.
// Whether a word has ever arrived is not a measurement, and survives.
func (c *ConnStats) Reset() {
	*c = ConnStats{everDelivered: c.everDelivered, epoch: c.epoch[:0], filling: c.filling[:0]}
}

// Mark snapshots the statistics at a hyperperiod boundary and starts
// logging the next epoch. It reports whether the epoch since the previous
// Mark was shift-clean: there was such a Mark, no Reset came after it,
// and the connection's first-ever delivery did not fall in the epoch. That
// word carries sequence number 0, which replay leaves unshifted as
// sequence-invariant (replay.Program's engage), so it must never be
// replayed.
//
// Nothing else is asked of the deliveries: the program engages only on
// byte-equal boundary fingerprints, so every later epoch repeats this one,
// and whatever phase the delivery before it had, the last delivery of m
// epochs on is this epoch's last plus m epochs. In particular the first
// delivery after a Reset sets FirstAt inside the epoch, but FirstAt is
// never shifted, so it needs no check.
func (c *ConnStats) Mark() bool {
	clean := c.logging && c.everDelivered == c.mEverDelivered
	c.dDelivered = c.Delivered - c.mDelivered
	c.epoch, c.filling = c.filling, c.epoch[:0]
	c.mEverDelivered, c.mDelivered = c.everDelivered, c.Delivered
	c.logging = true
	return clean
}

// Shift fast-forwards the statistics by s.Epochs copies of the epoch the
// last Mark closed and ends the snapshot. Latencies are time differences,
// the same in every epoch: the closed epoch's samples, repeated in order,
// are bit for bit what a cycle-accurate run would have added. A zero-epoch
// shift changes nothing else.
func (c *ConnStats) Shift(s *replay.Shift) {
	c.Delivered += s.Epochs * c.dDelivered
	if c.dDelivered != 0 {
		c.LastAt = replay.ShiftTime(c.LastAt, s.DT)
	}
	c.Latency.AddRepeated(c.epoch, s.Epochs)
	c.logging = false
}

// ThroughputMBps returns the average delivered throughput in Mbyte/s over
// the active span, given the word width in bytes.
func (c *ConnStats) ThroughputMBps(wordBytes int) float64 {
	firstNs := float64(c.FirstAt) / float64(clock.Nanosecond)
	lastNs := float64(c.LastAt) / float64(clock.Nanosecond)
	if c.Delivered < 2 || lastNs <= firstNs {
		return 0
	}
	bytes := float64(c.Delivered-1) * float64(wordBytes)
	return bytes / (lastNs - firstNs) * 1e3 // bytes/ns -> Mbyte/s
}

// InStats returns the statistics of a connection terminating here.
func (n *NI) InStats(conn phit.ConnID) *ConnStats { return &n.mustIn(conn).rx }

// Credits returns an out-connection's current end-to-end credit count.
func (n *NI) Credits(conn phit.ConnID) int { return n.mustOut(conn).credits }

// ResetStats clears measurement state (typically after warm-up) without
// touching protocol state.
func (n *NI) ResetStats() {
	for _, ic := range n.ins {
		ic.rx.Reset()
	}
}

func (n *NI) String() string {
	return fmt.Sprintf("ni(%s, %d out, %d in)", n.name, len(n.outs), len(n.ins))
}

// CorruptSlotForTest deliberately moves one of the connection's table
// reservations to a different, unowned slot — a fault-injection hook for
// verifying that the auditor, the network's TDM probes and the routers'
// contention checks detect schedule violations. Never call it outside tests.
func (n *NI) CorruptSlotForTest(conn phit.ConnID) {
	from, to := -1, -1
	for s, owner := range n.table.Slots {
		if owner == conn && from < 0 {
			from = s
		}
		if owner == phit.None && to < 0 {
			to = s
		}
	}
	if from < 0 || to < 0 {
		panic(fmt.Sprintf("ni %s: cannot corrupt table for connection %d", n.name, conn))
	}
	n.table.Slots[to] = conn
	n.table.Slots[from] = phit.None
}
