package core

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/clock"
	"repro/internal/fault"
	"repro/internal/link"
	"repro/internal/ni"
	"repro/internal/parallel"
	"repro/internal/phit"
	"repro/internal/reliable"
	"repro/internal/replay"
	"repro/internal/route"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/slots"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/wrapper"
)

// Mode selects the clocking discipline of the network.
type Mode int

const (
	// Synchronous: one global clock, direct links (the baseline aelite
	// of paper Section IV, with its global clock-tree burden).
	Synchronous Mode = iota
	// Mesochronous: every router tile (router + its NIs) has a random
	// phase offset within half a period, and inter-router links carry
	// mesochronous link pipeline stages (paper Section V).
	Mesochronous
	// Asynchronous: every router and every NI runs on its own
	// plesiochronous clock inside an asynchronous wrapper; all links are
	// token channels (paper Section VI).
	Asynchronous
)

func (m Mode) String() string {
	switch m {
	case Synchronous:
		return "synchronous"
	case Mesochronous:
		return "mesochronous"
	case Asynchronous:
		return "asynchronous"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode is the inverse of Mode.String, for flags and job specs.
func ParseMode(s string) (Mode, error) {
	for m := Synchronous; m <= Asynchronous; m++ {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (synchronous | mesochronous | asynchronous)", s)
}

// Config parameterises network construction. ApplyDefaults fills zero
// fields.
type Config struct {
	Layout    phit.HeaderLayout
	WordBytes int
	// TableSize is the TDM slot table size; 0 lets Build search
	// candidate sizes until allocation succeeds.
	TableSize int
	FreqMHz   float64
	Mode      Mode
	// FIFOForwardCycles is the bi-synchronous FIFO forwarding delay in
	// cycles (the paper assumes 1-2; with maximum skew, 1 keeps the
	// alignment at exactly one flit cycle).
	FIFOForwardCycles int
	// PhaseSeed randomises tile clock phases in Mesochronous mode.
	PhaseSeed int64
	// Probes enables dynamic TDM-ownership verification on every link
	// entry (panics on any violation of the allocated schedule).
	Probes bool
	// TrafficBurstFactor > 1 makes generators bursty (on/off) at the
	// same average rate; 0 or 1 selects CBR.
	TrafficBurstFactor float64
	// Transactional makes every IP emit whole transactions at line rate
	// (words sized by traffic.TxWordsForRate) instead of smooth CBR, and
	// sizes slot reservations and latency bounds for transaction drains.
	Transactional bool
	// PPM is the maximum plesiochronous frequency deviation, in parts
	// per million, of each element's clock in Asynchronous mode.
	PPM float64
	// FaultReporter, when non-nil, switches every component's envelope
	// checks from fail-fast panics to structured fault.Violation records
	// delivered to the reporter (typically a *fault.Collector), and the
	// components degrade gracefully past each violation.
	FaultReporter fault.Reporter
	// Reliable wraps every NI in the end-to-end reliability shell
	// (internal/reliable): CRC-stamped flits, in-order receive filtering,
	// cumulative acks instead of in-header credits, go-back-N
	// retransmission and link quarantine. Off (the default), the baseline
	// protocol runs untouched.
	Reliable bool
	// RetryBudget bounds the reliability layer's consecutive resend
	// rounds per connection before quarantine (0 selects
	// reliable.DefaultRetryBudget). Ignored without Reliable.
	RetryBudget int
	// FastReplay installs the hyperperiod replay fast path
	// (internal/replay): the engine records one hyperperiod of the
	// cycle-accurate schedule, and once two consecutive boundary
	// fingerprints match, replays it without per-component dispatch.
	// Configurations that are not provably periodic (transactional
	// traffic, asynchronous wrappers, reliability retransmission, armed
	// fault intercepts) fall back to cycle-accurate execution untouched,
	// so enabling it is always observation-safe.
	FastReplay bool
	// Allocator selects the slot/path allocation strategy by name:
	// "greedy" (the baseline; also the empty string) or "ripup" (the
	// Even & Fais-style rip-up-and-reroute allocator). See slots.ByName.
	Allocator string
	// UncappedPaths lifts the header path-field filter (Layout.MaxHops)
	// during allocation-only planning, so PlanAllocation can evaluate
	// slot/path allocation on meshes whose diameter exceeds the
	// single-word-header operating envelope (TDM allocation is
	// independent of header encoding). Build ignores it: a runnable
	// network needs every route encodable in one header word.
	UncappedPaths bool
	// SkewOverridePS, when non-zero in Mesochronous mode, replaces the
	// random in-envelope tile phases with a deterministic checkerboard:
	// tiles at even Manhattan parity get phase 0, odd parity get this
	// value, so every inter-router link sees exactly this skew. Values
	// past half a period deliberately leave the paper's operating
	// envelope (strict mode then fails fast at Build; collecting mode
	// records SkewBound violations and runs anyway).
	SkewOverridePS int64
}

// ApplyDefaults fills zero-valued fields with the paper's defaults: 32-bit
// words, 500 MHz, synchronous, one FIFO forwarding cycle.
func (c *Config) ApplyDefaults() {
	if c.Layout.WordBits == 0 {
		c.Layout = phit.DefaultLayout
	}
	if c.WordBytes == 0 {
		c.WordBytes = 4
	}
	if c.FreqMHz == 0 {
		c.FreqMHz = 500
	}
	if c.FIFOForwardCycles == 0 {
		c.FIFOForwardCycles = 1
	}
}

// Traffic is the traffic model the config offers every connection, on
// whichever backend is built from it.
func (c Config) Traffic() traffic.Model {
	return traffic.Model{WordBytes: c.WordBytes, BurstFactor: c.TrafficBurstFactor, Transactional: c.Transactional}
}

// A Network is a built, runnable aelite instance.
type Network struct {
	Cfg   Config
	Mesh  *topology.Mesh
	Spec  *spec.UseCase
	Alloc *slots.Allocation

	eng      *sim.Engine
	base     *clock.Clock
	nis      map[topology.NodeID]*ni.NI
	routers  map[topology.NodeID]*router.Component
	gens     map[phit.ConnID]*traffic.Generator
	conns    map[phit.ConnID]*connInfo
	stages   []*link.Stage
	niTables map[topology.NodeID]*slots.Table
	qidNext  map[topology.NodeID]int
	domains  map[topology.NodeID]*clock.Clock

	// Fault-injection surface, in construction (= deterministic) order.
	wrappers  []*wrapper.Wrapper
	linkWires []fault.LinkTarget
	linkClks  []*clock.Clock // writer-domain clock per linkWires entry
	faultClks []*clock.Clock // every mutable (non-base) clock

	// pendingQuar queues quarantine transitions recorded by the
	// reliability endpoints' hooks, drained by TakeQuarantined.
	pendingQuar []QuarantineEvent

	// prog is the installed hyperperiod replay program (nil unless
	// Config.FastReplay).
	prog *replay.Program

	// idHigh is the highest connection id (data or credit) ever used;
	// retired marks closed ids. Both guard re-admission: NI queue RAM
	// stays registered after a close, so ids are never reused.
	idHigh  phit.ConnID
	retired map[phit.ConnID]bool
}

// Engine exposes the simulation engine (for custom drivers and tests).
func (n *Network) Engine() *sim.Engine { return n.eng }

// BaseClock returns the nominal network clock.
func (n *Network) BaseClock() *clock.Clock { return n.base }

// NIOf returns the NI component at a node.
func (n *Network) NIOf(id topology.NodeID) *ni.NI { return n.nis[id] }

// Stages returns the mesochronous link pipeline stages (empty in
// synchronous mode).
func (n *Network) Stages() []*link.Stage { return n.stages }

// Generator returns the traffic generator of a data connection.
func (n *Network) Generator(c phit.ConnID) *traffic.Generator { return n.gens[c] }

// candidateTableSizes are tried in order when Config.TableSize is zero.
var candidateTableSizes = []int{8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256}

// Build assembles a network for the use case on the mesh. The use case
// must be validated and its IPs mapped (spec.MapIPsRoundRobin or manual).
// Build prepares the mesh for the config's mode itself (PrepareTopology),
// so routing sees the link pipeline depths it is about to instantiate.
func Build(m *topology.Mesh, uc *spec.UseCase, cfg Config) (*Network, error) {
	cfg.ApplyDefaults()
	cfg.UncappedPaths = false // planning-only relaxation; headers must encode

	if err := uc.ValidateMapped(); err != nil {
		return nil, err
	}
	PrepareTopology(m, cfg)
	sizes := candidateTableSizes
	if cfg.TableSize != 0 {
		sizes = []int{cfg.TableSize}
	}
	// Routes do not depend on the table size: compute them once and size
	// the requests from them for every size tried.
	routed, err := routeConnections(m, uc, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: allocation failed for all table sizes: %w", err)
	}
	var (
		alloc *slots.Allocation
		infos []*connInfo
	)
	for _, s := range sizes {
		alloc, infos, err = allocate(uc, cfg, routed, s)
		if err == nil {
			cfg.TableSize = s
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("core: allocation failed for all table sizes: %w", err)
	}
	if err := alloc.Verify(); err != nil {
		return nil, fmt.Errorf("core: allocator produced a contended schedule: %w", err)
	}
	n := &Network{
		Cfg:      cfg,
		Mesh:     m,
		Spec:     uc,
		Alloc:    alloc,
		eng:      sim.New(),
		nis:      make(map[topology.NodeID]*ni.NI),
		routers:  make(map[topology.NodeID]*router.Component),
		gens:     make(map[phit.ConnID]*traffic.Generator),
		conns:    make(map[phit.ConnID]*connInfo, len(infos)),
		niTables: make(map[topology.NodeID]*slots.Table),
		qidNext:  make(map[topology.NodeID]int),
		domains:  make(map[topology.NodeID]*clock.Clock),
		retired:  make(map[phit.ConnID]bool),
	}
	// The injection tables start empty: attach programs them, at build time
	// and at run-time admission alike.
	for _, id := range m.AllNIs() {
		n.niTables[id] = slots.NewTable(cfg.TableSize)
	}
	if cfg.Mode == Asynchronous {
		n.instantiateAsync()
	} else if err := n.instantiate(); err != nil {
		return nil, err
	}
	// Connections attach in ascending id order: queue ids, generator
	// staggers and engine dispatch order all follow it.
	sort.Slice(infos, func(i, j int) bool { return infos[i].spec.ID < infos[j].spec.ID })
	for _, info := range infos {
		if err := n.attach(info); err != nil {
			return nil, err
		}
	}
	n.addProbes()
	n.installReplay()
	return n, nil
}

// installReplay attaches the hyperperiod replay program when configured.
// Every link wire (entry, pipeline-internal and exit) joins the
// fingerprinted state set; NI queues, link FIFOs and router registers are
// fingerprinted by their owning components.
func (n *Network) installReplay() {
	if !n.Cfg.FastReplay {
		return
	}
	p := replay.New(n.eng)
	seen := make(map[*sim.Wire[phit.Phit]]bool)
	reg := func(w *sim.Wire[phit.Phit]) {
		if w != nil && !seen[w] {
			seen[w] = true
			p.RegisterWire(w)
		}
	}
	for _, lt := range n.linkWires {
		reg(lt.Wire)
	}
	for _, st := range n.stages {
		reg(st.InWire())
		reg(st.OutWire())
	}
	p.Install()
	n.prog = p
}

// Replay returns the installed hyperperiod replay program, or nil when
// Config.FastReplay is off.
func (n *Network) Replay() *replay.Program { return n.prog }

// allocate slot-allocates every routed connection (and its reverse credit
// channel) for one candidate table size and derives each one's guarantees,
// in spec order.
func allocate(uc *spec.UseCase, cfg Config, routed []routedConn, tableSize int) (*slots.Allocation, []*connInfo, error) {
	al, err := slots.ByName(cfg.Allocator)
	if err != nil {
		return nil, nil, err
	}
	requests, err := buildRequests(uc, cfg, routed, tableSize)
	if err != nil {
		return nil, nil, err
	}
	alloc, err := slots.AllocateWith(al, tableSize, requests)
	if err != nil {
		return nil, nil, err
	}
	infos := make([]*connInfo, len(uc.Connections))
	for i, c := range uc.Connections {
		infos[i] = deriveInfo(cfg, c, routed[i], requests[2*i+1].Conn, alloc)
	}
	return alloc, infos, nil
}

// parallelRouting is the smallest use case whose routing is split across
// workers; smaller ones route on the calling goroutine.
const parallelRouting = 512

// routeConnections routes every connection of the use case, in spec order.
// A large use case is split into contiguous index ranges, one per worker,
// each routing into its own arena; the error is the lowest-indexed
// connection's, as a sequential pass would meet it first.
func routeConnections(m *topology.Mesh, uc *spec.UseCase, cfg Config) ([]routedConn, error) {
	n, jobs := len(uc.Connections), 1
	if n >= parallelRouting {
		jobs = min(parallel.Jobs(0), n)
	}
	routed := make([]routedConn, n)
	_, err := parallel.Map(jobs, jobs, func(w int) (struct{}, error) {
		lo, hi := w*n/jobs, (w+1)*n/jobs
		ar := route.NewArena(2 * (hi - lo)) // both directions
		for i := lo; i < hi; i++ {
			rc, err := routeOne(m, uc, cfg, uc.Connections[i], nil, ar)
			if err != nil {
				return struct{}{}, err
			}
			routed[i] = rc
		}
		return struct{}{}, nil
	})
	if err != nil {
		return nil, err
	}
	return routed, nil
}

// buildRequests sizes every routed connection's slot requests for one
// candidate table size, without allocating anything: requests[2*i] is
// connection i's data channel, requests[2*i+1] its reverse credit channel.
func buildRequests(uc *spec.UseCase, cfg Config, routed []routedConn, tableSize int) ([]slots.Request, error) {
	requests := make([]slots.Request, 0, 2*len(uc.Connections))
	// Reverse connections get ids above the data range.
	maxID := phit.ConnID(0)
	for _, c := range uc.Connections {
		if c.ID > maxID {
			maxID = c.ID
		}
	}
	revBase := maxID + 1
	for i, c := range uc.Connections {
		reqs, err := requestsFor(cfg, c, routed[i], revBase+phit.ConnID(i), tableSize)
		if err != nil {
			return nil, err
		}
		requests = append(requests, reqs[:]...)
	}
	return requests, nil
}

// instantiate builds the single-clock or mesochronous fabric: clocks,
// wires, routers, link stages and NIs. Connections attach afterwards.
func (n *Network) instantiate() error {
	period := clock.PeriodFromMHz(n.Cfg.FreqMHz)
	n.base = clock.New("clk", period, 0)
	rng := rand.New(rand.NewSource(n.Cfg.PhaseSeed))
	fwdDelay := clock.Duration(n.Cfg.FIFOForwardCycles) * period

	// Tile phases are drawn within the window that keeps every link's
	// alignment at exactly one flit cycle: pairwise skew at most half a
	// period (the paper's bound) and, for slower FIFOs, at most
	// 2 cycles minus the forwarding delay (see link.NewStage).
	phaseWindow := period / 2
	if w := 2*period - fwdDelay; w < phaseWindow {
		phaseWindow = w
	}
	drawPhase := func() clock.Duration {
		if phaseWindow <= 0 {
			return 0
		}
		return clock.Duration(rng.Int63n(int64(phaseWindow) + 1))
	}

	// Per-router-tile clocks: the router and its NIs share one domain. A
	// skew override replaces the random in-envelope phases with a
	// checkerboard, giving every inter-router link exactly that skew
	// (adjacent routers always differ in Manhattan parity on a mesh).
	tileClk := make(map[topology.NodeID]*clock.Clock)
	for _, r := range n.Mesh.Routers() {
		ck := n.base
		if n.Cfg.Mode == Mesochronous {
			node := n.Mesh.Node(r)
			ph := drawPhase()
			if n.Cfg.SkewOverridePS != 0 {
				ph = 0
				if (node.X+node.Y)%2 != 0 {
					ph = clock.Duration(n.Cfg.SkewOverridePS)
				}
			}
			ck = clock.Mesochronous(n.base, fmt.Sprintf("clk.%s", node.Name), ph)
			n.faultClks = append(n.faultClks, ck)
		}
		tileClk[r] = ck
	}
	domainOf := func(id topology.NodeID) *clock.Clock {
		node := n.Mesh.Node(id)
		if node.Kind == topology.Router {
			return tileClk[id]
		}
		return tileClk[node.Router]
	}
	for _, node := range n.Mesh.Nodes() {
		n.domains[node.ID] = domainOf(node.ID)
	}

	// Wires per link: entry (driven by From) and exit (read by To).
	entry := make(map[topology.LinkID]*sim.Wire[phit.Phit])
	exit := make(map[topology.LinkID]*sim.Wire[phit.Phit])
	for _, l := range n.Mesh.Links() {
		name := fmt.Sprintf("l%d.%s>%s", l.ID, n.Mesh.Node(l.From).Name, n.Mesh.Node(l.To).Name)
		w := sim.NewWire[phit.Phit](name)
		wClk, rClk := domainOf(l.From), domainOf(l.To)
		// Wires commit with their writer's clock group: the entry wire is
		// driven by the From component, the exit wire by the last pipeline
		// stage, which NewStage clocks in the reader's domain.
		n.eng.AddWireClocked(w, wClk)
		entry[l.ID] = w
		n.linkWires = append(n.linkWires, fault.LinkTarget{Name: name, Wire: w})
		n.linkClks = append(n.linkClks, wClk)
		// PrepareTopology put this mode's stages on the link, and the
		// allocator's per-stage slot shifts assumed them.
		if l.PipelineStages == 0 {
			if wClk != rClk {
				return fmt.Errorf("core: link %s crosses clock domains without pipeline stages", name)
			}
			exit[l.ID] = w
			continue
		}
		out := sim.NewWire[phit.Phit](name + ".out")
		n.eng.AddWireClocked(out, rClk)
		// One mesochronous stage, clocked in the reader's domain.
		sts := link.Pipeline(name, n.eng, w, out, wClk, []*clock.Clock{rClk}, fwdDelay, n.Cfg.FaultReporter)
		n.stages = append(n.stages, sts...)
		exit[l.ID] = out
	}

	// Routers.
	for _, r := range n.Mesh.Routers() {
		node := n.Mesh.Node(r)
		rc := router.NewComponent(node.Name, node.Ports, n.Cfg.Layout, tileClk[r])
		rc.SetReporter(n.Cfg.FaultReporter)
		for p := 0; p < node.Ports; p++ {
			if l := n.Mesh.InLink(r, p); l != topology.Invalid {
				rc.ConnectIn(p, exit[l])
			}
			if l := n.Mesh.OutLink(r, p); l != topology.Invalid {
				rc.ConnectOut(p, entry[l])
			}
		}
		n.routers[r] = rc
		n.eng.Add(rc)
	}

	// NIs.
	for _, id := range n.Mesh.AllNIs() {
		node := n.Mesh.Node(id)
		inW := exit[n.Mesh.InLink(id, 0)]
		outW := entry[n.Mesh.OutLink(id, 0)]
		c := ni.New(node.Name, domainOf(id), n.Cfg.Layout, n.niTables[id], inW, outW)
		c.SetReporter(n.Cfg.FaultReporter)
		n.nis[id] = c
		n.eng.Add(c)
	}
	return nil
}

// addProbes puts a TDM-ownership probe on every link entry wire when
// Config.Probes is set (asynchronous mode has no wires to probe).
func (n *Network) addProbes() {
	if !n.Cfg.Probes {
		return
	}
	links := n.Mesh.Links() // linkWires is in link order
	for i, lt := range n.linkWires {
		l := links[i]
		n.eng.Add(&probe{
			name:  fmt.Sprintf("probe.l%d", l.ID),
			clk:   n.linkClks[i],
			wire:  lt.Wire,
			alloc: n.Alloc,
			link:  l.ID,
			rep:   n.Cfg.FaultReporter,
		})
	}
}

// ReliableTxStats returns the send-side reliability aggregate of a data
// connection (ok false when the network runs the baseline protocol or the
// connection is unknown).
func (n *Network) ReliableTxStats(c phit.ConnID) (reliable.TxStats, bool) {
	info := n.conns[c]
	if info == nil {
		return reliable.TxStats{}, false
	}
	ep := n.nis[info.srcNI].Reliable()
	if ep == nil {
		return reliable.TxStats{}, false
	}
	return ep.TxStatsOf(c)
}

// ReliableRxStats returns the receive-side reliability aggregate of a data
// connection (ok false when the network runs the baseline protocol or the
// connection is unknown).
func (n *Network) ReliableRxStats(c phit.ConnID) (reliable.RxStats, bool) {
	info := n.conns[c]
	if info == nil {
		return reliable.RxStats{}, false
	}
	ep := n.nis[info.dstNI].Reliable()
	if ep == nil {
		return reliable.RxStats{}, false
	}
	return ep.RxStatsOf(c)
}

// FaultTargets enumerates the built network's injection points for a
// fault campaign: link entry wires (drop/corrupt/duplicate), every
// non-base clock (phase/period steps), every mesochronous FIFO
// (forwarding-delay stretch) and every asynchronous wrapper (PIC stall).
func (n *Network) FaultTargets() fault.Targets {
	t := fault.Targets{
		Links:  append([]fault.LinkTarget(nil), n.linkWires...),
		Clocks: append([]*clock.Clock(nil), n.faultClks...),
	}
	for _, s := range n.stages {
		t.Delays = append(t.Delays, fault.DelayTarget{Name: s.FIFOName(), Stretch: s.StretchForwardDelay})
	}
	for _, w := range n.wrappers {
		t.Stalls = append(t.Stalls, fault.StallTarget{Name: w.Name(), Stall: w.Stall})
	}
	return t
}

// AddInvariantCheckers registers the paper's invariant observers with the
// engine: a SlotChecker on every link entry (Section III contention
// freedom) and, in asynchronous mode, a LivenessChecker over every
// wrapper (Section VI empty-token liveness). Call once, before Run.
func (n *Network) AddInvariantCheckers(rep fault.Reporter) {
	for i, lt := range n.linkWires {
		n.eng.Add(fault.NewSlotChecker("check."+lt.Name, n.linkClks[i], lt.Wire, rep))
	}
	if len(n.wrappers) > 0 {
		watch := make([]fault.Progress, len(n.wrappers))
		for i, w := range n.wrappers {
			watch[i] = w
		}
		n.eng.Add(fault.NewLivenessChecker("check.liveness", n.base, watch, 0, rep))
	}
}

// PrepareTopology sets the pipeline-stage counts the given config will
// instantiate onto the mesh so that routing computes the correct TDM
// shifts. It is idempotent. Build, PlanAllocation and BuildBE call it on
// the mesh they are handed; call it directly only where shifts are needed
// before a network exists (scenario.ClampLatencyBudgets).
func PrepareTopology(m *topology.Mesh, cfg Config) {
	switch cfg.Mode {
	case Mesochronous:
		// One link pipeline stage on every router-router link.
		m.SetAllPipelineStages(0)
		m.SetMeshPipelineStages(1)
	case Asynchronous:
		// Every hop advances a flit by InitialTokens dataflow
		// iterations, i.e. InitialTokens slots: the paper's "adapting
		// the slot allocation" for clock-domain crossings.
		m.SetAllPipelineStages(wrapper.InitialTokens - 1)
	default:
		m.SetAllPipelineStages(0)
	}
}
