package ni

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/stats"
)

// ConnStats summarises one terminating connection's measured behaviour at
// this NI. Latency is measured per payload word from acceptance into the
// source NI's IP-side FIFO to arrival at the destination NI, in
// nanoseconds — the same span the paper's requirements cover.
type ConnStats struct {
	Delivered int64
	Latency   *stats.Histogram
	// FirstNs and LastNs are the arrival times of the first and last
	// delivered word, for throughput computation over the active span.
	FirstNs, LastNs float64
}

// ThroughputMBps returns the average delivered throughput in Mbyte/s over
// the active span, given the word width in bytes.
func (c ConnStats) ThroughputMBps(wordBytes int) float64 {
	if c.Delivered < 2 || c.LastNs <= c.FirstNs {
		return 0
	}
	bytes := float64(c.Delivered-1) * float64(wordBytes)
	return bytes / (c.LastNs - c.FirstNs) * 1e3 // bytes/ns -> Mbyte/s
}

// InStats returns measurement for a connection terminating here.
func (n *NI) InStats(conn phit.ConnID) ConnStats {
	ic := n.mustIn(conn)
	return ConnStats{
		Delivered: ic.delivered,
		Latency:   &ic.latency,
		FirstNs:   float64(ic.firstAt) / float64(clock.Nanosecond),
		LastNs:    float64(ic.lastAt) / float64(clock.Nanosecond),
	}
}

// Credits returns an out-connection's current end-to-end credit count.
func (n *NI) Credits(conn phit.ConnID) int { return n.mustOut(conn).credits }

// OwedCredits returns how many credits an in-connection still owes its
// sender.
func (n *NI) OwedCredits(conn phit.ConnID) int { return n.mustIn(conn).owed }

// PaddingWords returns the number of padding phits received (protocol
// overhead accounting).
func (n *NI) PaddingWords() int64 { return n.paddingSum }

// ResetStats clears measurement state (typically after warm-up) without
// touching protocol state.
func (n *NI) ResetStats() {
	for _, ic := range n.ins {
		ic.delivered = 0
		ic.latency = stats.Histogram{}
		ic.firstAt = 0
		ic.lastAt = 0
		ic.epoch, ic.filling = ic.epoch[:0], ic.filling[:0]
	}
	n.paddingSum = 0
	// Counter snapshots taken at a hyperperiod boundary are stale now;
	// the replay program must re-baseline before engaging again.
	n.rmValid = false
}

func (n *NI) String() string {
	return fmt.Sprintf("ni(%s, %d out, %d in)", n.name, len(n.outs), len(n.ins))
}

// CorruptSlotForTest deliberately moves one of the connection's table
// reservations to a different, unowned slot — a fault-injection hook for
// verifying that the network's TDM probes and the routers' contention
// checks detect schedule violations. Never call it outside tests.
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
