package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/trace"
)

// The study's time line.
const (
	reconfigWarmupNs    = 4000.0  // warmup before the measurement window
	reconfigMeasureNs   = 40000.0 // measurement window per run
	reconfigSwitchAtNs  = 12000.0 // reconfiguration instant inside the window
	reconfigHealEveryNs = 8000.0  // healer cadence in the self-healing phase
)

// RejectionCase is one typed-rejection probe of the admission phase.
type RejectionCase struct {
	Label    string        `json:"label"`
	Want     string        `json:"want"`
	Decision core.Decision `json:"decision"`
}

// ReconfigIsolation is the undisturbed-service phase's verdict.
type ReconfigIsolation struct {
	Survivors  int         `json:"survivors"`
	Words      int         `json:"words"`
	Identical  bool        `json:"identical"`
	FirstDiff  string      `json:"first_diff,omitempty"`
	ClosedConn phit.ConnID `json:"closed_conn"`
	NewConn    phit.ConnID `json:"new_conn"`
	// AuditViolations counts guarantee breaches in the baseline and the
	// reconfigured run (both must be zero).
	AuditViolations [2]int64 `json:"audit_violations"`
	// Residue counts closed-connection leftovers found after the switch
	// (slot-table entries, link occupancy, allocation bookkeeping).
	Residue int `json:"residue"`
}

// ReconfigSummary is the study's machine-readable artefact (the CI gate
// consumes the JSON form).
type ReconfigSummary struct {
	Seed       int64             `json:"seed"`
	Isolation  ReconfigIsolation `json:"isolation"`
	Rejections []RejectionCase   `json:"rejections"`
	FaultyLink string            `json:"faulty_link"`
	Heals      []core.HealReport `json:"heals"`
	Reroutes   int               `json:"reroutes"`
	Degraded   int               `json:"degraded"`
	// Violations counts every gate failure across the three phases; the
	// study passes iff it is zero.
	Violations int      `json:"violations"`
	Failures   []string `json:"failures,omitempty"`
}

// reconfigSpec builds the study's workload: light enough that a closed
// connection's capacity re-admits, busy enough that every link of
// interest carries traffic.
func reconfigSpec(seed int64) *spec.UseCase {
	return spec.Random(spec.RandomConfig{
		Name: "reconfig", Seed: seed, IPs: 10, Apps: 2, Conns: 8,
		MinRateMBps: 20, MaxRateMBps: 80,
		MinLatencyNs: 400, MaxLatencyNs: 1200,
	})
}

// reconfigNetwork builds the study's network over a private mesh; rep is
// its fault reporter, nil for a network nothing watches.
func reconfigNetwork(seed int64, reliable bool, retry int, rep fault.Reporter) (*core.Network, error) {
	m := topology.NewMesh(3, 2, 2)
	uc := reconfigSpec(seed)
	spec.MapIPsByTraffic(uc, m)
	ncfg := core.Config{
		Mode: core.Mesochronous, Reliable: reliable, RetryBudget: retry, FaultReporter: rep,
	}
	return core.Build(m, uc, ncfg)
}

// reconfigIsolation runs the paired undisturbed-service proof: a baseline
// run with the population fixed against a run that closes the victim
// connection mid-window and admits a replacement requirement, with every
// flit audited, the auditor resynchronised across the switch, and the
// closed ids swept for residue. Only the survivors' deliveries are
// recorded, and their timelines must be byte-identical: slot ownership is
// the only state connections share, a close only surrenders slots and an
// admission only claims free ones — reference [16]'s "undisrupted
// quality-of-service during reconfiguration of multiple applications".
func reconfigIsolation(seed int64, jobs int) (ReconfigIsolation, error) {
	// The victim is the highest-id connection of the (deterministic)
	// workload; everyone else must not notice the switch.
	uc := reconfigSpec(seed)
	victim := uc.Connections[0].ID
	for _, c := range uc.Connections {
		if c.ID > victim {
			victim = c.ID
		}
	}
	var survivors []phit.ConnID
	for _, c := range uc.Connections {
		if c.ID != victim {
			survivors = append(survivors, c.ID)
		}
	}
	sort.Slice(survivors, func(i, j int) bool { return survivors[i] < survivors[j] })

	out := ReconfigIsolation{Survivors: len(survivors), ClosedConn: victim}
	var audViol [2]int64
	var residue [2]int
	var newConn [2]phit.ConnID
	res, err := audit.Isolation(jobs, func(reconfig bool) (audit.Timelines, error) {
		audCol := fault.NewCollector()
		n, err := reconfigNetwork(seed, false, 0, nil)
		if err != nil {
			return nil, err
		}
		bus := trace.NewBus()
		n.AttachTracer(bus)
		a := audit.Attach(n, bus, audCol, audit.Options{})

		rx := audit.RecordDeliveries(bus, clock.Time(reconfigWarmupNs*float64(clock.Nanosecond)), survivors...)

		idx := 0
		var actions []core.TimedAction
		if reconfig {
			idx = 1
			actions = append(actions, core.TimedAction{AtNs: reconfigSwitchAtNs, Do: func(n *core.Network) error {
				sc, err := n.SpecOf(victim)
				if err != nil {
					return err
				}
				rev, err := n.ReverseOf(victim)
				if err != nil {
					return err
				}
				if err := n.CloseConnection(victim); err != nil {
					return err
				}
				nc := sc
				nc.ID = n.FreshConnID()
				d, err := n.Admit(nc)
				if err != nil {
					return err
				}
				if !d.Admissible {
					return fmt.Errorf("reconfig: freed capacity did not re-admit: %s (%s)", d.Reason, d.Detail)
				}
				newConn[1] = nc.ID
				a.Resync(n)
				residue[1] = n.CheckReconfigResidue([]phit.ConnID{victim, rev}, audCol)
				return nil
			}})
		}
		if _, err := n.RunTimed(reconfigWarmupNs, reconfigMeasureNs, actions); err != nil {
			return nil, err
		}
		audViol[idx] = a.Violations() + int64(audCol.CountByKind()[fault.ReconfigResidue])
		return rx.Timelines(), nil
	})
	if err != nil {
		return out, err
	}
	out.Words = res.Words
	out.Identical = res.Identical
	out.FirstDiff = res.FirstDiff
	out.AuditViolations = audViol
	out.Residue = residue[1]
	out.NewConn = newConn[1]
	return out, nil
}

// reconfigRejections probes the admission controller with requests that
// must each fail for a specific typed reason — and verifies the probes
// left the network untouched (same free-slot picture before and after).
func reconfigRejections(seed int64) ([]RejectionCase, error) {
	n, err := reconfigNetwork(seed, false, 0, nil)
	if err != nil {
		return nil, err
	}
	uc := reconfigSpec(seed)
	c0 := uc.Connections[0]
	fresh := n.FreshConnID()
	// A slot carries 2 payload words per 3-word flit: link payload
	// capacity is 2/3 of the raw word rate.
	capacityMBps := n.Cfg.FreqMHz * float64(n.Cfg.WordBytes) * 2 / 3

	var allRouterLinks []topology.LinkID
	for _, l := range n.Mesh.Links() {
		if n.Mesh.Node(l.From).Kind == topology.Router && n.Mesh.Node(l.To).Kind == topology.Router {
			allRouterLinks = append(allRouterLinks, l.ID)
		}
	}
	// The avoid probe needs endpoints on different routers — a pair on
	// one router never touches a router-to-router link.
	crossing := c0
	for _, c := range uc.Connections {
		links, err := n.ConnectionLinks(c.ID)
		if err != nil {
			return nil, err
		}
		hasRR := false
		for _, l := range links {
			lk := n.Mesh.Link(l)
			if n.Mesh.Node(lk.From).Kind == topology.Router && n.Mesh.Node(lk.To).Kind == topology.Router {
				hasRR = true
				break
			}
		}
		if hasRR {
			crossing = c
			break
		}
	}

	mk := func(bw, lat float64) spec.Connection {
		return spec.Connection{ID: fresh, App: c0.App, Src: c0.Src, Dst: c0.Dst, BandwidthMBps: bw, MaxLatencyNs: lat}
	}
	type probe struct {
		label string
		conn  spec.Connection
		avoid []topology.LinkID
		want  string
	}
	probes := []probe{
		{"duplicate id", c0, nil, "duplicate-id"},
		{"unknown endpoint", spec.Connection{ID: fresh, Src: spec.IPID(999), Dst: c0.Dst, BandwidthMBps: 40, MaxLatencyNs: 1000}, nil, "unknown-endpoint"},
		{"rate above link capacity", mk(capacityMBps*1.25, 5000), nil, "bound-infeasible"},
		{"latency below path delay", mk(40, 1), nil, "bound-infeasible"},
		{"every route avoided", spec.Connection{ID: fresh, App: crossing.App, Src: crossing.Src, Dst: crossing.Dst,
			BandwidthMBps: 40, MaxLatencyNs: 1000}, allRouterLinks, "no-path"},
		{"table-filling request", mk(capacityMBps*0.97, 60000), nil, "no-slots"},
	}

	before := n.Alloc.Conns()
	var out []RejectionCase
	for _, p := range probes {
		d := n.Probe(p.conn, p.avoid...)
		if d.Admissible {
			return nil, fmt.Errorf("reconfig: probe %q was admitted, want rejection %s", p.label, p.want)
		}
		if d.Reason != p.want {
			return nil, fmt.Errorf("reconfig: probe %q rejected as %s, want %s (%s)", p.label, d.Reason, p.want, d.Detail)
		}
		out = append(out, RejectionCase{Label: p.label, Want: p.want, Decision: d})
	}
	after := n.Alloc.Conns()
	if len(before) != len(after) {
		return nil, fmt.Errorf("reconfig: rejection probes changed the live allocation (%d -> %d owners)", len(before), len(after))
	}
	return out, nil
}

// reconfigHealing arms a hard fault (one router-to-router link dropping
// every flit) on a reliable build with a tight retry budget, runs the
// healer between engine segments, and reports how each quarantined
// connection was rerouted (or gracefully degraded) and how long the
// service interruption lasted.
func reconfigHealing(seed int64) (string, []core.HealReport, *trace.Metrics, *core.Report, error) {
	col := fault.NewCollector()
	n, err := reconfigNetwork(seed, true, 2, col)
	if err != nil {
		return "", nil, nil, nil, err
	}
	bus := trace.NewBus()
	mx := trace.NewMetrics(bus)
	n.AttachTracer(bus)
	h := core.NewHealer(n, bus)

	// Fault the first router-to-router link any connection rides: every
	// connection crossing it (data or credit direction) will exhaust its
	// retry budget and quarantine.
	var faulty topology.LinkID
	var faultyName string
	for _, id := range n.Connections() {
		links, err := n.ConnectionLinks(id)
		if err != nil {
			return "", nil, nil, nil, err
		}
		for _, l := range links {
			lk := n.Mesh.Link(l)
			if n.Mesh.Node(lk.From).Kind == topology.Router && n.Mesh.Node(lk.To).Kind == topology.Router {
				faulty = l
				faultyName = fmt.Sprintf("l%d.%s>%s", l, n.Mesh.Node(lk.From).Name, n.Mesh.Node(lk.To).Name)
				break
			}
		}
		if faultyName != "" {
			break
		}
	}
	if faultyName == "" {
		return "", nil, nil, nil, fmt.Errorf("reconfig: no connection rides a router-to-router link")
	}
	plan := &fault.Plan{Seed: seed, Rates: []fault.RateRule{
		{Target: fmt.Sprintf("l%d.", faulty), Drop: 1},
	}}
	campaign := fault.NewCampaign(plan, col)
	if err := campaign.Arm(n.Engine(), n.FaultTargets()); err != nil {
		return "", nil, nil, nil, err
	}

	// The healer must run between engine segments (quarantine fires
	// inside event processing); RunTimed's actions are exactly that.
	var actions []core.TimedAction
	for at := reconfigHealEveryNs; at < reconfigMeasureNs; at += reconfigHealEveryNs {
		actions = append(actions, core.TimedAction{AtNs: at, Do: func(n *core.Network) error {
			_, err := h.Heal()
			return err
		}})
	}
	rep, err := n.RunTimed(0, reconfigMeasureNs, actions)
	if err != nil {
		return "", nil, nil, nil, err
	}
	if _, err := h.Heal(); err != nil {
		return "", nil, nil, nil, err
	}
	return faultyName, h.Reports(), mx, rep, nil
}

// ReconfigStudy takes one fixed workload, drawn from seed, through the
// three claims of run-time reconfiguration — (1) closing and admitting
// connections mid-run leaves every survivor's delivery timeline
// byte-identical, (2) inadmissible requests are rejected with typed
// reasons and change nothing, (3) a hard link fault quarantines the
// connections crossing it and the self-healing layer reroutes them over
// admissible alternate paths, with the recovery latency measured — and
// renders the verdict.
func ReconfigStudy(seed int64, jobs int) (*ReconfigSummary, error) {
	sum := &ReconfigSummary{Seed: seed}
	fail := func(format string, args ...any) {
		sum.Violations++
		sum.Failures = append(sum.Failures, fmt.Sprintf(format, args...))
	}

	iso, err := reconfigIsolation(seed, jobs)
	if err != nil {
		return nil, err
	}
	sum.Isolation = iso
	if !iso.Identical {
		fail("survivor timelines diverged: %s", iso.FirstDiff)
	}
	if iso.Words == 0 {
		fail("survivors delivered nothing")
	}
	for i, label := range []string{"baseline", "reconfig"} {
		if iso.AuditViolations[i] != 0 {
			fail("%s run broke %d audited guarantees", label, iso.AuditViolations[i])
		}
	}
	if iso.Residue != 0 {
		fail("close left %d residues behind", iso.Residue)
	}

	rej, err := reconfigRejections(seed)
	if err != nil {
		return nil, err
	}
	sum.Rejections = rej

	faulty, heals, mx, rep, err := reconfigHealing(seed)
	if err != nil {
		return nil, err
	}
	sum.FaultyLink = faulty
	sum.Heals = heals
	for _, h := range heals {
		if h.Rerouted {
			sum.Reroutes++
			if h.RecoveryNs <= 0 {
				fail("reroute of connection %d has no recovery latency", h.Victim)
			}
			if cm := mx.Conn(h.Origin); cm.Reroutes == 0 {
				fail("reroute of connection %d missing from the trace metrics", h.Victim)
			}
		}
		if h.Degraded {
			sum.Degraded++
		}
	}
	if sum.Reroutes == 0 {
		fail("hard fault on %s triggered no reroute", faulty)
	}
	// Every replacement must actually carry payload after the reroute.
	delivered := make(map[phit.ConnID]int64)
	for _, c := range rep.Conns {
		delivered[c.Conn] = c.Delivered
	}
	for _, h := range heals {
		if h.Rerouted && delivered[h.Replacement] == 0 {
			// A replacement admitted in the final healer pass, after the
			// last engine segment, never got simulated time to deliver;
			// anything earlier must carry payload.
			if float64(h.HealedAt) < reconfigMeasureNs*0.9*1e3 {
				fail("replacement %d of connection %d delivered nothing", h.Replacement, h.Victim)
			}
		}
	}
	return sum, nil
}

// RenderReconfig renders the study summary as text.
func RenderReconfig(sum *ReconfigSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- online reconfiguration study (seed %d) --\n", sum.Seed)
	iso := sum.Isolation
	verdict := "IDENTICAL"
	if !iso.Identical {
		verdict = "DIVERGED: " + iso.FirstDiff
	}
	fmt.Fprintf(&b, "undisturbed service: %d survivors, %d delivery instants across close(%d)+admit(%d): %s\n",
		iso.Survivors, iso.Words, iso.ClosedConn, iso.NewConn, verdict)
	fmt.Fprintf(&b, "                     audit violations baseline=%d reconfig=%d, close residues=%d\n",
		iso.AuditViolations[0], iso.AuditViolations[1], iso.Residue)
	fmt.Fprintf(&b, "admission control:   %d inadmissible requests, each rejected with its typed reason:\n", len(sum.Rejections))
	for _, r := range sum.Rejections {
		fmt.Fprintf(&b, "  %-26s -> %-16s %s\n", r.Label, r.Decision.Reason, r.Decision.Detail)
	}
	fmt.Fprintf(&b, "self-healing:        %s dropping every flit: %d reroutes, %d degraded\n",
		sum.FaultyLink, sum.Reroutes, sum.Degraded)
	for _, h := range sum.Heals {
		switch {
		case h.Rerouted:
			fmt.Fprintf(&b, "  conn %d quarantined at %.1f ns -> rerouted as conn %d, recovery %.1f ns\n",
				h.Victim, float64(h.QuarantinedAt)/1e3, h.Replacement, h.RecoveryNs)
		default:
			fmt.Fprintf(&b, "  conn %d quarantined at %.1f ns -> degraded gracefully (%s)\n",
				h.Victim, float64(h.QuarantinedAt)/1e3, h.Decision.Reason)
		}
	}
	if sum.Violations == 0 {
		fmt.Fprintf(&b, "verdict: PASS (0 violations)\n")
	} else {
		fmt.Fprintf(&b, "verdict: FAIL (%d violations)\n", sum.Violations)
		for _, f := range sum.Failures {
			fmt.Fprintf(&b, "  %s\n", f)
		}
	}
	return b.String()
}

// WriteReconfigJSON writes the machine-readable summary (the CI
// artifact).
func WriteReconfigJSON(w io.Writer, sum *ReconfigSummary) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sum)
}
