package core

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/ni"
	"repro/internal/phit"
	"repro/internal/reliable"
	"repro/internal/route"
	"repro/internal/slots"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The life of one connection, each step with one owner: routeOne finds its
// candidate paths, requestsFor sizes its slot requests, the slots package
// places them, deriveInfo reads its guarantees off the placement, attach
// wires it into the NIs and starts its traffic, CloseConnection retires it.
// Build runs the steps for every connection of the use case; OpenConnection
// runs the same steps for one more.

// connInfo is everything derived for one data connection.
type connInfo struct {
	spec     spec.Connection
	srcNI    topology.NodeID
	dstNI    topology.NodeID
	path     *route.Path
	slotSet  []int
	rev      phit.ConnID
	revPath  *route.Path
	revSlots []int

	guaranteeMBps float64
	boundNs       float64
	recvCap       int
	ackRTSlots    int // reverse-channel slot round trip (ack/credit return)
}

// A routedConn is one connection's table-size-independent routing result:
// its endpoints and the candidate paths of both directions. Build routes
// once and sizes requests from this for every table size it tries.
type routedConn struct {
	srcNI, dstNI topology.NodeID
	fwd, rev     []*route.Path
	// worst is the forward candidate with the largest TotalShift; requests
	// are sized for it so the bound holds whichever path is picked (minimal
	// routes on a uniform mesh all share it, but stay general).
	worst *route.Path
}

// routeOne resolves a connection's endpoints and computes the candidate
// paths of both directions. Several minimal-route candidates (plus
// detours) defeat slot-alignment fragmentation on loaded meshes (TDM never
// blocks in-network, so any route is safe). Candidates whose hop count
// exceeds the header path field are unusable unless cfg.UncappedPaths, and
// so is any candidate crossing a link in avoid. The paths are carved from
// ar. The error wraps ErrUnknownEndpoint, ErrSharedNI or ErrNoRoute.
func routeOne(m *topology.Mesh, uc *spec.UseCase, cfg Config, c spec.Connection, avoid []topology.LinkID, ar *route.Arena) (routedConn, error) {
	src, dst, err := uc.Endpoints(c)
	if err != nil {
		return routedConn{}, fmt.Errorf("core: connection %d: %w: %v", c.ID, ErrUnknownEndpoint, err)
	}
	if src == dst {
		return routedConn{}, fmt.Errorf("core: connection %d: %w (NI %d)", c.ID, ErrSharedNI, src)
	}
	candidates := func(from, to topology.NodeID) ([]*route.Path, error) {
		paths, err := ar.Candidates(m, from, to, 6)
		if err != nil {
			return nil, fmt.Errorf("core: connection %d: %w: %v", c.ID, ErrNoRoute, err)
		}
		if !cfg.UncappedPaths {
			paths = fitHeader(paths, cfg.Layout)
		}
		return dropAvoided(paths, avoid), nil
	}
	rc := routedConn{srcNI: src, dstNI: dst}
	if rc.fwd, err = candidates(src, dst); err != nil {
		return routedConn{}, err
	}
	if rc.rev, err = candidates(dst, src); err != nil {
		return routedConn{}, err
	}
	if len(rc.fwd) == 0 || len(rc.rev) == 0 {
		return routedConn{}, fmt.Errorf("core: connection %d: %w (header limit %d hops, %d links avoided)",
			c.ID, ErrNoRoute, cfg.Layout.MaxHops(), len(avoid))
	}
	rc.worst = rc.fwd[0]
	for _, p := range rc.fwd[1:] {
		if p.TotalShift > rc.worst.TotalShift {
			rc.worst = p
		}
	}
	return rc, nil
}

// fitHeader drops candidate paths that exceed the header layout's
// maximum encodable hop count.
func fitHeader(paths []*route.Path, layout phit.HeaderLayout) []*route.Path {
	out := paths[:0]
	for _, p := range paths {
		if p.Hops() <= layout.MaxHops() {
			out = append(out, p)
		}
	}
	return out
}

// dropAvoided discards candidate paths that traverse any avoided link.
func dropAvoided(paths []*route.Path, avoid []topology.LinkID) []*route.Path {
	if len(avoid) == 0 {
		return paths
	}
	bad := make(map[topology.LinkID]bool, len(avoid))
	for _, l := range avoid {
		bad[l] = true
	}
	out := paths[:0]
	for _, p := range paths {
		hit := false
		for _, h := range p.Links {
			if bad[h.Link] {
				hit = true
				break
			}
		}
		if !hit {
			out = append(out, p)
		}
	}
	return out
}

// requestsFor sizes a routed connection's two slot requests for one table
// size: the data channel from the connection's requirements on its worst
// candidate, and the reverse credit channel rev from the data slot count.
func requestsFor(cfg Config, c spec.Connection, rc routedConn, rev phit.ConnID, tableSize int) ([2]slots.Request, error) {
	count, windowTarget, m, err := sizeConnection(cfg, c, rc.worst, tableSize)
	if err != nil {
		return [2]slots.Request{}, err
	}
	return [2]slots.Request{
		{Conn: c.ID, Paths: rc.fwd, Count: count, GapTarget: windowTarget, WindowSlots: m},
		{Conn: rev, Paths: rc.rev, Count: analysis.RevSlots(count, cfg.Layout.MaxCredits())},
	}, nil
}

// analysisMode maps a network configuration (and a connection's rate,
// which selects the transaction size) onto the analytical protocol mode.
func analysisMode(cfg Config, rateMBps float64) analysis.Mode {
	return analysis.Mode{
		Reliable:      cfg.Reliable,
		Transactional: cfg.Transactional,
		TxWords:       traffic.TxWordsForRate(rateMBps),
	}
}

// sizeConnection converts one connection's requirements into a slot
// count, service-window target and window size.
func sizeConnection(cfg Config, c spec.Connection, worst *route.Path, tableSize int) (count, windowTarget, m int, err error) {
	bwSlots, err := analysis.SlotsForBandwidth(c.BandwidthMBps, cfg.FreqMHz, cfg.WordBytes, tableSize, cfg.Reliable)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("core: connection %d: %w", c.ID, err)
	}
	var latSlots int
	tx := traffic.TxWordsForRate(c.BandwidthMBps)
	if cfg.Transactional {
		latSlots, err = analysis.SlotsForBurstLatency(c.MaxLatencyNs, tx, worst, tableSize, cfg.FreqMHz, cfg.Reliable)
	} else {
		latSlots, err = analysis.SlotsForLatency(c.MaxLatencyNs, worst, tableSize, cfg.FreqMHz)
	}
	if err != nil {
		return 0, 0, 0, fmt.Errorf("core: connection %d: %w", c.ID, err)
	}
	windowPeriod := 0
	m = 1
	if cfg.Transactional {
		m = analysis.BurstSlotTimes(tx, cfg.Reliable)
		wordsPerCycle := c.BandwidthMBps * 1e6 / float64(cfg.WordBytes) / (cfg.FreqMHz * 1e6)
		periodCycles := float64(tx) / wordsPerCycle
		windowPeriod = int(periodCycles / float64(phit.FlitWords))
		if windowPeriod < 1 {
			windowPeriod = 1
		}
		if ps := (m*tableSize + windowPeriod - 1) / windowPeriod; ps > latSlots {
			latSlots = ps
		}
	}
	count = bwSlots
	if latSlots > count {
		count = latSlots
	}
	windowTarget, werr := analysis.WindowSlotsForBudget(c.MaxLatencyNs, worst, cfg.FreqMHz)
	if werr != nil {
		return 0, 0, 0, fmt.Errorf("core: connection %d: %w", c.ID, werr)
	}
	if windowPeriod > 0 && windowPeriod < windowTarget {
		windowTarget = windowPeriod
	}
	return count, windowTarget, m, nil
}

// deriveInfo reads a placed connection's guarantees off the allocation:
// the worst path each direction actually uses, the bandwidth guarantee and
// latency bound of its slot set, the credit channel's slot round trip and
// the receive buffer that round trip needs.
func deriveInfo(cfg Config, c spec.Connection, rc routedConn, rev phit.ConnID, alloc *slots.Allocation) *connInfo {
	as, ras := alloc.ByConn[c.ID], alloc.ByConn[rev]
	info := &connInfo{
		spec: c, srcNI: rc.srcNI, dstNI: rc.dstNI, rev: rev,
		path: usedWorstPath(as), slotSet: as.Slots,
		revPath: usedWorstPath(ras), revSlots: ras.Slots,
	}
	b := analysis.ConnectionBounds(info.path, as.Slots, alloc.TableSize, cfg.FreqMHz, cfg.WordBytes, analysisMode(cfg, c.BandwidthMBps))
	info.guaranteeMBps = b.GuaranteeMBps
	info.boundNs = b.LatencyNs
	if cfg.Mode == Asynchronous {
		// Wrapped operation relaxes the latency bound: every hop
		// re-aligns to a local flit cycle (up to one extra flit
		// cycle per hop) and the slowest clock may run PPM slow.
		extra := float64(phit.FlitWords*len(info.path.Links)) * 1e3 / cfg.FreqMHz
		info.boundNs = (info.boundNs + extra) * (1 + cfg.PPM/1e6)
	}
	info.ackRTSlots = analysis.CreditRoundTripSlots(ras.Slots, info.revPath, alloc.TableSize)
	info.recvCap = analysis.RecvCapacityWords(len(as.Slots), info.ackRTSlots, alloc.TableSize)
	return info
}

// usedWorstPath returns, among the paths an assignment actually uses, the
// one with the largest TotalShift — the path latency bounds must cover.
func usedWorstPath(asg *slots.Assignment) *route.Path {
	// In slot order: among candidate paths of equal TotalShift the first
	// strict improvement wins, and everything derived from the pick
	// (latency bounds, credit round trips, receive buffer capacities) must
	// not vary between same-seed builds.
	worst := asg.Path
	for _, p := range asg.PathOf {
		if p.TotalShift > worst.TotalShift {
			worst = p
		}
	}
	return worst
}

// queueIDs returns the next free queue ids at a connection's destination
// (data) and source (credits) NIs, or ErrQueueExhausted. It consumes
// nothing: attach does, on success.
func (n *Network) queueIDs(src, dst topology.NodeID) (dataQID, revQID int, err error) {
	dataQID, revQID = n.qidNext[dst], n.qidNext[src]
	if max(dataQID, revQID) > n.Cfg.Layout.MaxQID() {
		return 0, 0, fmt.Errorf("%w (layout allows %d queues per NI)", ErrQueueExhausted, n.Cfg.Layout.MaxQID()+1)
	}
	return dataQID, revQID, nil
}

// attach wires a derived connection into the built fabric: queue ids at
// both NIs, per-slot headers, the data and credit channel registrations,
// the two injection-table entries, the reliability shell when configured,
// and the traffic generator. It fails before it changes anything.
func (n *Network) attach(info *connInfo) error {
	id, rev := info.spec.ID, info.rev
	dataQID, revQID, err := n.queueIDs(info.srcNI, info.dstNI)
	if err != nil {
		return fmt.Errorf("core: connection %d: %w", id, err)
	}
	dataHdrs, err := slotHeaders(n.Mesh.Graph, n.Cfg.Layout, n.Alloc.ByConn[id], dataQID)
	if err != nil {
		return fmt.Errorf("core: connection %d header: %w", id, err)
	}
	revHdrs, err := slotHeaders(n.Mesh.Graph, n.Cfg.Layout, n.Alloc.ByConn[rev], revQID)
	if err != nil {
		return fmt.Errorf("core: connection %d reverse header: %w", id, err)
	}
	n.qidNext[info.dstNI]++
	n.qidNext[info.srcNI]++

	src, dst := n.nis[info.srcNI], n.nis[info.dstNI]
	// Data direction: out at src, in at dst.
	src.AddOutConn(ni.OutConnConfig{ID: id, Headers: dataHdrs, InitialCredits: info.recvCap, PairedIn: rev})
	dst.AddInConn(ni.InConnConfig{ID: id, QID: dataQID, RecvCapacity: info.recvCap, CreditFor: rev, AutoDrain: true})
	// Credit direction: out at dst, in at src.
	dst.AddOutConn(ni.OutConnConfig{ID: rev, Headers: revHdrs, InitialCredits: 0, PairedIn: id})
	src.AddInConn(ni.InConnConfig{ID: rev, QID: revQID, RecvCapacity: 0, CreditFor: id, AutoDrain: true})
	// The injection tables are the live objects the NIs read.
	n.program(info.srcNI, id, info.slotSet)
	n.program(info.dstNI, rev, info.revSlots)

	if n.Cfg.Reliable {
		// A windowed sender at the source, a tracked receiver at the
		// destination, and ack carriage on the reverse channel in both
		// directions. The timeout is the worst-case fault-free flit round
		// trip: the forward latency bound (already relaxed for wrapped
		// operation in asynchronous mode), the cumulative ack's reverse
		// slot round trip, and one table revolution of margin (the ack
		// rides the next reverse flit, which may have just been missed).
		flitCycle := clock.Duration(phit.FlitWords) * clock.PeriodFromMHz(n.Cfg.FreqMHz)
		timeout := clock.Duration(info.boundNs*1e3) +
			clock.Duration(info.ackRTSlots+n.Cfg.TableSize)*flitCycle
		sep, dep := n.reliableEndpointFor(info.srcNI), n.reliableEndpointFor(info.dstNI)
		sep.RegisterTx(id, reliable.TxConfig{
			Windowed: true, PairedIn: rev, Timeout: timeout,
			RetryBudget: n.Cfg.RetryBudget,
		})
		sep.RegisterRx(rev, reliable.RxConfig{AckFor: id})
		dep.RegisterRx(id, reliable.RxConfig{Tracked: true})
		dep.RegisterTx(rev, reliable.TxConfig{PairedIn: id})
	}

	n.conns[id] = info
	n.idHigh = max(n.idHigh, id, rev)
	g := n.Cfg.Traffic().Generator(n.domainOf(info.srcNI), src, id, info.spec.BandwidthMBps, len(n.gens))
	n.gens[id] = g
	n.eng.Add(g)
	return nil
}

// program enters a channel's slots into its source NI's injection table.
func (n *Network) program(src topology.NodeID, id phit.ConnID, slotSet []int) {
	table := n.niTables[src]
	for _, s := range slotSet {
		if table.Slots[s] != phit.None {
			panic(fmt.Sprintf("core: slot %d of connection %d already programmed", s, id))
		}
		table.Slots[s] = id
	}
}

// slotHeaders encodes, per reserved slot, the header word for the path
// that slot was allocated on. This is where an adopted path's ports are
// derived from its links.
func slotHeaders(g *topology.Graph, layout phit.HeaderLayout, asg *slots.Assignment, qid int) (map[int]phit.Word, error) {
	out := make(map[int]phit.Word, len(asg.Slots))
	for i, s := range asg.Slots {
		h, err := layout.Encode(asg.PathOf[i].Ports(g), qid, 0)
		if err != nil {
			return nil, err
		}
		out[s] = h
	}
	return out, nil
}

// reliableEndpointFor returns the NI's reliability endpoint, creating and
// installing one (with the quarantine hook) on first use.
func (n *Network) reliableEndpointFor(id topology.NodeID) *reliable.Endpoint {
	c := n.nis[id]
	if ep := c.Reliable(); ep != nil {
		return ep
	}
	ep := reliable.NewEndpoint(c.Name())
	ep.SetQuarantineHook(n.recordQuarantine)
	c.SetReliable(ep)
	return ep
}

// domainOf returns the clock domain of a node (tile clock in mesochronous
// mode, its own clock in asynchronous mode, base otherwise). Valid after
// the fabric is instantiated.
func (n *Network) domainOf(id topology.NodeID) *clock.Clock {
	if ck, ok := n.domains[id]; ok {
		return ck
	}
	return n.base
}
