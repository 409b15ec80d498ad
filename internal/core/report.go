package core

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/ni"
	"repro/internal/phit"
	"repro/internal/reliable"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/topology"
)

// A ConnReport pairs one connection's requirements and analytical
// guarantees with its simulated behaviour.
type ConnReport struct {
	Conn phit.ConnID
	App  spec.AppID

	// Requirements from the spec.
	RequiredMBps      float64
	RequiredLatencyNs float64

	// Analytical guarantees from the allocation.
	Slots          int
	GuaranteedMBps float64
	BoundNs        float64
	PathHops       int

	// Simulated measurements.
	Delivered    int64
	MeasuredMBps float64
	LatMinNs     float64
	LatMeanNs    float64
	LatMaxNs     float64
	LatP99Ns     float64
	LatStdDevNs  float64

	// Verdicts.
	MetThroughput bool // measured >= required (within tolerance)
	MetLatency    bool // measured max <= required budget
	WithinBound   bool // measured max <= analytical bound
}

// A Report covers one simulation run.
type Report struct {
	Name       string
	FreqMHz    float64
	TableSize  int
	Mode       string
	MeasureNs  float64
	Conns      []ConnReport
	TotalEdges int64
}

// AllMet reports whether every connection met both requirements.
func (r *Report) AllMet() bool {
	for _, c := range r.Conns {
		if !c.MetThroughput || !c.MetLatency {
			return false
		}
	}
	return true
}

// AllWithinBound reports whether every measured maximum latency respected
// its analytical bound (the predictability check).
func (r *Report) AllWithinBound() bool {
	for _, c := range r.Conns {
		if !c.WithinBound {
			return false
		}
	}
	return true
}

// Totals reduces the report to a campaign row: the words delivered, the
// total measured throughput and the worst latency of any connection. Both
// floats are finite: a degenerate window (nothing delivered, an empty
// span) would otherwise aggregate to NaN or Inf, which no JSON artifact
// can carry.
func (r *Report) Totals() (delivered int64, totalMBps, worstLatNs float64) {
	for _, c := range r.Conns {
		delivered += c.Delivered
		totalMBps += c.MeasuredMBps
		if c.LatMaxNs > worstLatNs {
			worstLatNs = c.LatMaxNs
		}
	}
	return delivered, stats.Finite(totalMBps), stats.Finite(worstLatNs)
}

// Violations returns the connections that missed a requirement.
func (r *Report) Violations() []ConnReport {
	var out []ConnReport
	for _, c := range r.Conns {
		if !c.MetThroughput || !c.MetLatency {
			out = append(out, c)
		}
	}
	return out
}

// Write renders the report as a table.
func (r *Report) Write(w io.Writer) {
	fmt.Fprintf(w, "use case %q: %s, %.0f MHz, table %d, measured %.0f ns\n",
		r.Name, r.Mode, r.FreqMHz, r.TableSize, r.MeasureNs)
	fmt.Fprintf(w, "%6s %4s %9s %9s %9s %9s %8s %8s %8s %8s %5s\n",
		"conn", "app", "reqMB/s", "gotMB/s", "reqLatNs", "boundNs", "latMin", "latAvg", "latMax", "latP99", "ok")
	for _, c := range r.Conns {
		ok := "yes"
		if !c.MetThroughput || !c.MetLatency {
			ok = "NO"
		}
		fmt.Fprintf(w, "%6d %4d %9.1f %9.1f %9.1f %9.1f %8.1f %8.1f %8.1f %8.1f %5s\n",
			c.Conn, c.App, c.RequiredMBps, c.MeasuredMBps, c.RequiredLatencyNs, c.BoundNs,
			c.LatMinNs, c.LatMeanNs, c.LatMaxNs, c.LatP99Ns, ok)
	}
}

// ThroughputTolerance absorbs measurement-window edge effects when
// comparing delivered throughput to the requirement.
const ThroughputTolerance = 0.98

// NewReport is the one report path of every backend's Run: it gives head
// a row for each of n connections, the i-th from what conn(i) states of it
// — its requirement, what the fabric derived for it (slots, guarantee,
// bound and hops) and its destination's statistics — and decides the
// row's verdicts, which makes it the one place that says what "met" means.
// A best-effort fabric states the hops alone and passes bounded false:
// with no analytical bound to exceed, WithinBound holds vacuously.
func NewReport(head Report, wordBytes int, bounded bool, n int, conn func(i int) (spec.Connection, ConnectionInfo, *ni.ConnStats)) *Report {
	r := &head
	for i := 0; i < n; i++ {
		c, info, st := conn(i)
		cr := ConnReport{
			Conn:              c.ID,
			App:               c.App,
			RequiredMBps:      c.BandwidthMBps,
			RequiredLatencyNs: c.MaxLatencyNs,
			Slots:             len(info.Slots),
			GuaranteedMBps:    info.GuaranteedMBps,
			BoundNs:           info.BoundNs,
			PathHops:          info.PathHops,
			Delivered:         st.Delivered,
		}
		if st.Delivered > 0 {
			cr.MeasuredMBps = st.ThroughputMBps(wordBytes)
			cr.LatMinNs = st.Latency.Min()
			cr.LatMeanNs = st.Latency.Mean()
			cr.LatMaxNs = st.Latency.Max()
			cr.LatP99Ns = st.Latency.Percentile(99)
			cr.LatStdDevNs = st.Latency.StdDev()
		}
		cr.MetThroughput = cr.MeasuredMBps >= cr.RequiredMBps*ThroughputTolerance
		cr.MetLatency = st.Delivered > 0 && cr.LatMaxNs <= cr.RequiredLatencyNs
		cr.WithinBound = !bounded || st.Delivered > 0 && cr.LatMaxNs <= cr.BoundNs
		r.Conns = append(r.Conns, cr)
	}
	return r
}

// CheckWindow rejects a run window that OpenWindow cannot simulate: both
// bounds finite, the warm-up at least zero, the measurement positive, and
// their sum a simulated instant (clock.FromNs).
func CheckWindow(warmupNs, measureNs float64) error {
	if _, ok := clock.FromNs(warmupNs + measureNs); !(warmupNs >= 0 && measureNs > 0 && ok) {
		return fmt.Errorf("warm-up %g ns must be >= 0 and measurement %g ns > 0, both finite and together under %.0f ns",
			warmupNs, measureNs, math.MaxInt64/float64(clock.Nanosecond))
	}
	return nil
}

// OpenWindow is the measurement protocol behind every backend's Run:
// simulate warmupNs of warm-up, clear statistics with reset, and return
// the function that advances the engine to atNs nanoseconds into the
// measurement window (never past measureNs, never backwards — a
// reconfiguration drain may already have moved time on). An engaged fast
// path lands its fast-forwarded state before the reset and after every
// advance, so whatever runs next — a timed action, the report — reads
// cycle-accurate state. A run ends with advance(measureNs).
func OpenWindow(eng *sim.Engine, warmupNs, measureNs float64, reset func()) (advance func(atNs float64)) {
	eng.Run(eng.Now() + clock.Time(warmupNs*float64(clock.Nanosecond)))
	eng.Sync()
	reset()
	start := eng.Now()
	end := start + clock.Time(measureNs*float64(clock.Nanosecond))
	return func(atNs float64) {
		at := min(start+clock.Time(atNs*float64(clock.Nanosecond)), end)
		if at > eng.Now() {
			eng.Run(at)
		}
		eng.Sync()
	}
}

// Run simulates warmupNs of warm-up, clears statistics, simulates
// measureNs more, and returns the report.
func (n *Network) Run(warmupNs, measureNs float64) *Report {
	rep, _ := n.RunTimed(warmupNs, measureNs, nil) // only an action can fail
	return rep
}

func (n *Network) report(measureNs float64) *Report {
	head := Report{
		Name:       n.Spec.Name,
		FreqMHz:    n.Cfg.FreqMHz,
		TableSize:  n.Cfg.TableSize,
		Mode:       n.Cfg.Mode.String(),
		MeasureNs:  measureNs,
		TotalEdges: n.eng.Edges(),
	}
	ids := n.Connections()
	return NewReport(head, n.Cfg.WordBytes, true, len(ids), func(i int) (spec.Connection, ConnectionInfo, *ni.ConnStats) {
		info, _ := n.Info(ids[i])
		return n.conns[ids[i]].spec, info, n.nis[info.DstNI].InStats(ids[i])
	})
}

// ConnectionInfo is the externally visible allocation result for one
// connection.
type ConnectionInfo struct {
	Conn           phit.ConnID
	SrcNI          topology.NodeID
	DstNI          topology.NodeID
	Slots          []int
	PathHops       int
	TotalShift     int
	GuaranteedMBps float64
	RequiredMBps   float64
	BoundNs        float64
	RecvCapacity   int
	AckRTSlots     int
}

// Info returns the allocation-derived facts of a data connection.
func (n *Network) Info(c phit.ConnID) (ConnectionInfo, error) {
	info, ok := n.conns[c]
	if !ok {
		return ConnectionInfo{}, fmt.Errorf("core: unknown connection %d", c)
	}
	return ConnectionInfo{
		Conn:           c,
		SrcNI:          info.srcNI,
		DstNI:          info.dstNI,
		Slots:          append([]int(nil), info.slotSet...),
		PathHops:       info.path.Hops(),
		TotalShift:     info.path.TotalShift,
		GuaranteedMBps: info.guaranteeMBps,
		RequiredMBps:   info.spec.BandwidthMBps,
		BoundNs:        info.boundNs,
		RecvCapacity:   info.recvCap,
		AckRTSlots:     info.ackRTSlots,
	}, nil
}

// Connections returns the ids of all data connections, ascending.
func (n *Network) Connections() []phit.ConnID {
	out := make([]phit.ConnID, 0, len(n.conns))
	for id := range n.conns {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Contracts states the network's analytical contracts for the
// conformance auditor: each data connection's bound and source wait
// budget (plus the reliability shell's recovery allowance), its
// guarantee, and every NI's allocation-side injection table. The tables
// come from the allocation, not from the live NIs, so corruption of the
// latter is caught.
func (n *Network) Contracts() analysis.ContractSet {
	allowancePs := n.recoveryAllowancePs()
	set := analysis.ContractSet{
		FreqMHz:      n.Cfg.FreqMHz,
		WordBytes:    n.Cfg.WordBytes,
		Asynchronous: n.Cfg.Mode == Asynchronous,
		PPM:          n.Cfg.PPM,
		AllocTables:  make(map[string][]phit.ConnID),
	}
	for _, id := range n.Connections() {
		info := n.conns[id]
		set.Contracts = append(set.Contracts, analysis.Contract{
			Conn:          id,
			SrcName:       n.Mesh.Node(info.srcNI).Name,
			DstName:       n.Mesh.Node(info.dstNI).Name,
			BoundPs:       info.boundNs*1e3 + allowancePs,
			WaitBudgetPs:  analysis.SourceWaitBudgetNs(info.boundNs, info.path.TotalShift, n.Cfg.FreqMHz)*1e3 + allowancePs,
			GuaranteeMBps: info.guaranteeMBps,
		})
	}
	for _, nid := range n.Mesh.NIs() {
		set.AllocTables[n.Mesh.Node(nid).Name] = n.Alloc.NITable(nid).Slots
	}
	set.RouterTables = make(map[string][][]phit.ConnID)
	for _, r := range n.Mesh.Routers() {
		node := n.Mesh.Node(r)
		ports := make([][]phit.ConnID, node.Ports)
		for p := range ports {
			l := n.Mesh.OutLink(r, p)
			if l == topology.Invalid {
				continue
			}
			ports[p] = make([]phit.ConnID, n.Alloc.TableSize)
			for s := range ports[p] {
				ports[p][s] = n.Alloc.LinkOwner(l, s)
			}
		}
		set.RouterTables[node.Name] = ports
	}
	return set
}

// recoveryAllowancePs bounds the extra delivery delay the reliability
// shell may legitimately add before quarantine: every go-back-N round
// waits one timeout, the timeout doubles per silent round up to the
// backoff cap, and the budget bounds the rounds. Without Reliable the
// allowance is zero and the analytical bound is checked exactly.
func (n *Network) recoveryAllowancePs() float64 {
	if !n.Cfg.Reliable {
		return 0
	}
	budget := n.Cfg.RetryBudget
	if budget <= 0 {
		budget = reliable.DefaultRetryBudget
	}
	var worstBound float64
	for _, id := range n.Connections() {
		if tx, ok := n.ReliableTxStats(id); ok {
			timeoutPs := float64(tx.Timeout)
			backoff, sum := 1.0, 0.0
			for r := 0; r <= budget; r++ {
				sum += backoff
				if backoff < float64(reliable.BackoffCap) {
					backoff *= 2
				}
			}
			if w := timeoutPs * sum; w > worstBound {
				worstBound = w
			}
		}
	}
	return worstBound
}
