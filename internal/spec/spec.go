package spec

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"

	"repro/internal/phit"
	"repro/internal/topology"
)

// IPID identifies an IP (a processor, accelerator, memory...).
type IPID int

// AppID identifies an application: a set of connections that belong
// together and must be verifiable in isolation.
type AppID int

// An IP is a hardware block attached to the network through an NI.
type IP struct {
	ID   IPID   `json:"id"`
	Name string `json:"name"`
	// NI is the network interface the IP is mapped to; topology.Invalid
	// until mapping has run.
	NI topology.NodeID `json:"ni"`
}

// A Connection is a unidirectional logical channel between two IP ports
// with guaranteed-service requirements.
type Connection struct {
	ID  phit.ConnID `json:"id"`
	App AppID       `json:"app"`
	Src IPID        `json:"src"`
	Dst IPID        `json:"dst"`

	// BandwidthMBps is the required throughput in Mbyte/s (1e6 bytes).
	BandwidthMBps float64 `json:"bandwidth_mbps"`
	// MaxLatencyNs is the required worst-case latency, in nanoseconds,
	// from a word entering the source NI to it leaving the destination
	// NI.
	MaxLatencyNs float64 `json:"max_latency_ns"`
}

// A UseCase is a complete set of applications sharing the NoC.
type UseCase struct {
	Name        string       `json:"name"`
	Apps        int          `json:"apps"`
	IPs         []IP         `json:"ips"`
	Connections []Connection `json:"connections"`
}

// Validate checks referential integrity and requirement sanity.
func (u *UseCase) Validate() error {
	ips := make(map[IPID]bool, len(u.IPs))
	for _, ip := range u.IPs {
		if ips[ip.ID] {
			return fmt.Errorf("spec: duplicate IP id %d", ip.ID)
		}
		ips[ip.ID] = true
	}
	conns := make(map[phit.ConnID]bool, len(u.Connections))
	for _, c := range u.Connections {
		switch {
		case c.ID == phit.None:
			return fmt.Errorf("spec: connection between IP %d and %d uses reserved id 0", c.Src, c.Dst)
		case c.ID < phit.None:
			// Ids index the trace metrics and the auditor's tables.
			return fmt.Errorf("spec: connection id %d is negative", c.ID)
		case conns[c.ID]:
			return fmt.Errorf("spec: duplicate connection id %d", c.ID)
		case !ips[c.Src]:
			return fmt.Errorf("spec: connection %d references unknown source IP %d", c.ID, c.Src)
		case !ips[c.Dst]:
			return fmt.Errorf("spec: connection %d references unknown destination IP %d", c.ID, c.Dst)
		case c.Src == c.Dst:
			return fmt.Errorf("spec: connection %d is a self-loop on IP %d", c.ID, c.Src)
		case c.BandwidthMBps <= 0:
			return fmt.Errorf("spec: connection %d has non-positive bandwidth", c.ID)
		case c.MaxLatencyNs <= 0:
			return fmt.Errorf("spec: connection %d has non-positive latency budget", c.ID)
		case c.App < 0 || int(c.App) >= u.Apps:
			return fmt.Errorf("spec: connection %d names app %d of %d", c.ID, c.App, u.Apps)
		}
		conns[c.ID] = true
	}
	return nil
}

// ValidateMapped is Validate plus the check that mapping has run: every
// IP sits on an NI. It is what a network build requires of its use case.
func (u *UseCase) ValidateMapped() error {
	if err := u.Validate(); err != nil {
		return err
	}
	for _, ip := range u.IPs {
		if ip.NI == topology.Invalid {
			return fmt.Errorf("spec: IP %s is not mapped to an NI", ip.Name)
		}
	}
	return nil
}

// Endpoints returns the NIs a connection's source and destination IPs are
// mapped to.
func (u *UseCase) Endpoints(c Connection) (src, dst topology.NodeID, err error) {
	s, err := u.IP(c.Src)
	if err != nil {
		return 0, 0, err
	}
	d, err := u.IP(c.Dst)
	if err != nil {
		return 0, 0, err
	}
	return s.NI, d.NI, nil
}

// IP returns the IP with the given id. Generated use cases number their IPs
// by position, so the direct index is tried before the scan that
// hand-written specs may need.
func (u *UseCase) IP(id IPID) (IP, error) {
	if id >= 0 && int(id) < len(u.IPs) && u.IPs[id].ID == id {
		return u.IPs[id], nil
	}
	for _, ip := range u.IPs {
		if ip.ID == id {
			return ip, nil
		}
	}
	return IP{}, fmt.Errorf("spec: no IP %d", id)
}

// ConnectionsOfApp returns the connections belonging to one application.
func (u *UseCase) ConnectionsOfApp(a AppID) []Connection {
	var out []Connection
	for _, c := range u.Connections {
		if c.App == a {
			out = append(out, c)
		}
	}
	return out
}

// TotalBandwidthMBps sums the required bandwidth over all connections.
func (u *UseCase) TotalBandwidthMBps() float64 {
	sum := 0.0
	for _, c := range u.Connections {
		sum += c.BandwidthMBps
	}
	return sum
}

// RandomConfig parameterises Random. The zero value is not useful; start
// from Section7Config.
type RandomConfig struct {
	Name  string
	Seed  int64
	IPs   int
	Apps  int
	Conns int

	// Rates are drawn in two log-uniform bands: a HeavyFraction of the
	// connections draws from [HeavyMinRateMBps, MaxRateMBps], the rest
	// from [MinRateMBps, HeavyMinRateMBps] (or the whole range when
	// HeavyFraction is 0). Real SoC traffic is dominated by many modest
	// control/streaming channels plus a few heavy memory streams; a flat
	// distribution over the paper's 10-500 Mbyte/s range would exceed
	// the 4x3 mesh's bisection at 500 MHz, which the paper's workload
	// demonstrably does not (it fits).
	MinRateMBps, MaxRateMBps float64
	HeavyFraction            float64
	HeavyMinRateMBps         float64

	// Latency budgets are drawn log-uniformly from
	// [MinLatencyNs, MaxLatencyNs].
	MinLatencyNs, MaxLatencyNs float64
}

// Section7Config reproduces the workload of the paper's Section VII:
// 200 connections across 4 applications between 70 IPs, with throughput
// requirements in 10-500 Mbyte/s and latency requirements in 35-500 ns.
func Section7Config(seed int64) RandomConfig {
	return RandomConfig{
		Name:             "section7",
		Seed:             seed,
		IPs:              70,
		Apps:             4,
		Conns:            200,
		MinRateMBps:      10,
		MaxRateMBps:      500,
		HeavyFraction:    0.1,
		HeavyMinRateMBps: 40,
		MinLatencyNs:     35,
		MaxLatencyNs:     500,
	}
}

// Random generates a seeded random use case per the config. Connections
// pick distinct random endpoints; each connection is assigned to a random
// application.
func Random(cfg RandomConfig) *UseCase {
	if cfg.IPs < 2 || cfg.Conns < 1 || cfg.Apps < 1 {
		panic(fmt.Sprintf("spec: degenerate random config %+v", cfg))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	u := &UseCase{Name: cfg.Name, Apps: cfg.Apps}
	for i := 0; i < cfg.IPs; i++ {
		u.IPs = append(u.IPs, IP{ID: IPID(i), Name: fmt.Sprintf("IP%d", i), NI: topology.Invalid})
	}
	logUniform := func(lo, hi float64) float64 {
		return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
	}
	for i := 0; i < cfg.Conns; i++ {
		src := IPID(rng.Intn(cfg.IPs))
		dst := IPID(rng.Intn(cfg.IPs - 1))
		if dst >= src {
			dst++
		}
		var rate float64
		if cfg.HeavyFraction > 0 && cfg.HeavyMinRateMBps > cfg.MinRateMBps {
			if rng.Float64() < cfg.HeavyFraction {
				rate = logUniform(cfg.HeavyMinRateMBps, cfg.MaxRateMBps)
			} else {
				rate = logUniform(cfg.MinRateMBps, cfg.HeavyMinRateMBps)
			}
		} else {
			rate = logUniform(cfg.MinRateMBps, cfg.MaxRateMBps)
		}
		u.Connections = append(u.Connections, Connection{
			ID:            phit.ConnID(i + 1),
			App:           AppID(rng.Intn(cfg.Apps)),
			Src:           src,
			Dst:           dst,
			BandwidthMBps: rate,
			MaxLatencyNs:  logUniform(cfg.MinLatencyNs, cfg.MaxLatencyNs),
		})
	}
	return u
}

// MapIPsRoundRobin assigns IPs to the mesh's NIs in round-robin order
// (deterministic). With 70 IPs on 48 NIs, some NIs host two IPs, as in the
// paper's concentrated mapping. The seed shuffles the IP order first so
// that different seeds give different placements.
func MapIPsRoundRobin(u *UseCase, m *topology.Mesh, seed int64) {
	nis := m.AllNIs()
	order := rand.New(rand.NewSource(seed)).Perm(len(u.IPs))
	for i, idx := range order {
		u.IPs[idx].NI = nis[i%len(nis)]
	}
}

// MapIPsByTraffic places IPs communication-aware, approximating the
// Æthereal design flow's mapping step [16]: IPs are placed in descending
// order of total connection bandwidth; each goes to the NI (with a seat
// left) that minimises the sum over already-placed partners of
// bandwidth x mesh distance, plus a load-balancing term that spreads
// aggregate injection/delivery load across NIs. Heavy flows end up short
// and hot spots are avoided — both essential to fit 200 random
// connections on a 4x3 mesh at 500 MHz.
func MapIPsByTraffic(u *UseCase, m *topology.Mesh) {
	nis := m.AllNIs()
	// Per-IP partner lists in first-appearance order: the placement cost
	// below sums floats over a candidate's partners, and summing in map
	// iteration order would let float non-associativity flip near-tie
	// placements between same-seed runs.
	type partner struct {
		ip IPID
		w  float64
	}
	partners := make(map[IPID][]partner)
	slot := make(map[[2]IPID]int)
	addW := func(a, b IPID, w float64) {
		key := [2]IPID{a, b}
		if i, ok := slot[key]; ok {
			partners[a][i].w += w
		} else {
			slot[key] = len(partners[a])
			partners[a] = append(partners[a], partner{ip: b, w: w})
		}
	}
	load := make(map[IPID]float64, len(u.IPs))
	for _, c := range u.Connections {
		addW(c.Src, c.Dst, c.BandwidthMBps)
		addW(c.Dst, c.Src, c.BandwidthMBps)
		load[c.Src] += c.BandwidthMBps
		load[c.Dst] += c.BandwidthMBps
	}
	order := make([]int, len(u.IPs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		la, lb := load[u.IPs[order[a]].ID], load[u.IPs[order[b]].ID]
		if la != lb {
			return la > lb
		}
		return u.IPs[order[a]].ID < u.IPs[order[b]].ID
	})
	dist := func(a, b topology.NodeID) float64 {
		ra, rb := m.Node(m.Node(a).Router), m.Node(m.Node(b).Router)
		d := ra.X - rb.X
		if d < 0 {
			d = -d
		}
		dy := ra.Y - rb.Y
		if dy < 0 {
			dy = -dy
		}
		return float64(d+dy) + 2 // two NI hops
	}
	placed := make(map[IPID]topology.NodeID)
	niLoad := make([]float64, len(nis))
	niIPs := make([]int, len(nis))
	maxPerNI := (len(u.IPs) + len(nis) - 1) / len(nis)
	// The load-balance weight trades wire length against hot NIs; the
	// mean mesh distance (~4) over a typical partner weight works well.
	const balance = 6.0
	for _, idx := range order {
		ip := &u.IPs[idx]
		best, bestCost := -1, 0.0
		for k, ni := range nis {
			if niIPs[k] >= maxPerNI {
				continue
			}
			cost := balance * niLoad[k]
			for _, pw := range partners[ip.ID] {
				if pni, ok := placed[pw.ip]; ok {
					cost += pw.w * dist(ni, pni)
				}
			}
			if best < 0 || cost < bestCost {
				best, bestCost = k, cost
			}
		}
		ip.NI = nis[best]
		placed[ip.ID] = nis[best]
		niLoad[best] += load[ip.ID]
		niIPs[best]++
	}
}

// Save writes the use case as indented JSON.
func (u *UseCase) Save(path string) error {
	b, err := json.MarshalIndent(u, "", "  ")
	if err != nil {
		return fmt.Errorf("spec: marshal: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Load reads a use case from JSON and validates it.
func Load(path string) (*UseCase, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	var u UseCase
	if err := json.Unmarshal(b, &u); err != nil {
		return nil, fmt.Errorf("spec: parse %s: %w", path, err)
	}
	if err := u.Validate(); err != nil {
		return nil, err
	}
	return &u, nil
}
