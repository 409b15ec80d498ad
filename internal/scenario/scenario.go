package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/dataflow"
	"repro/internal/phit"
	"repro/internal/route"
	"repro/internal/spec"
	"repro/internal/topology"
)

// A Family names one generator.
type Family string

// The generator families. See the package comment for what each models.
const (
	Uniform    Family = "uniform"
	Hotspot    Family = "hotspot"
	Transpose  Family = "transpose"
	Multimedia Family = "multimedia"
	Dataflow   Family = "dataflow"
)

// Families returns every generator family, in documentation order.
func Families() []Family {
	return []Family{Uniform, Hotspot, Transpose, Multimedia, Dataflow}
}

// ParseFamily resolves a family name.
func ParseFamily(s string) (Family, error) {
	for _, f := range Families() {
		if string(f) == s {
			return f, nil
		}
	}
	return "", fmt.Errorf("scenario: unknown family %q (uniform | hotspot | transpose | multimedia | dataflow)", s)
}

// Config parameterises Generate. Zero-valued fields are filled by
// sensible scale-dependent defaults (see applyDefaults); Family, Cols,
// Rows, Conns and Seed are the required knobs.
type Config struct {
	Family Family `json:"family"`
	Name   string `json:"name"` // default "<family>-<cols>x<rows>-s<seed>"
	Seed   int64  `json:"seed"`

	Cols         int `json:"cols,omitempty"` // mesh dimensions
	Rows         int `json:"rows,omitempty"`
	NIsPerRouter int `json:"nis_per_router,omitempty"`
	Apps         int `json:"apps,omitempty"`
	Conns        int `json:"conns,omitempty"`

	// FreqMHz, WordBytes and TableSize are the network parameters the
	// generated requirements must be feasible against (rate quantisation
	// and latency clamping are computed for exactly these values).
	FreqMHz   float64 `json:"freq_mhz,omitempty"`
	WordBytes int     `json:"word_bytes,omitempty"`
	TableSize int     `json:"table_size,omitempty"`

	// Rates are drawn log-uniformly in [MinRateMBps, MaxRateMBps], with
	// a HeavyFraction of the connections drawn from the upper half of
	// the band (the many-modest-channels-plus-few-heavy-streams shape of
	// real SoC traffic; see spec.RandomConfig).
	MinRateMBps   float64 `json:"min_rate_mbps,omitempty"`
	MaxRateMBps   float64 `json:"max_rate_mbps,omitempty"`
	HeavyFraction float64 `json:"heavy_fraction,omitempty"`

	// HotspotCount and HotspotFraction shape the Hotspot family: the
	// fraction of connections whose destination is one of the count
	// hotspot IPs.
	HotspotCount    int     `json:"hotspot_count,omitempty"`
	HotspotFraction float64 `json:"hotspot_fraction,omitempty"`

	// StreamLength is the Multimedia pipeline depth and the Dataflow
	// ring size.
	StreamLength int `json:"stream_length,omitempty"`

	// Latency budgets are drawn log-uniformly in
	// [MinLatencyNs, MaxLatencyNs] before clamping.
	MinLatencyNs float64 `json:"min_latency_ns,omitempty"`
	MaxLatencyNs float64 `json:"max_latency_ns,omitempty"`

	// Quantize rounds every rate down to a replay-admissible value
	// (QuantizeRateMBps) so CBR simulations of the scenario engage the
	// hyperperiod replay fast path. Default on (disable with
	// NoQuantize).
	NoQuantize bool `json:"no_quantize,omitempty"`
	// NoClampLatency skips raising infeasible latency budgets
	// (ClampLatencyBudgets). Default on; disabling it makes large
	// scenarios analytically unallocatable with high probability.
	NoClampLatency bool `json:"no_clamp_latency,omitempty"`
}

// Default returns the documented configuration of a family at the given
// scale: one IP per NI (2 NIs per router), 4 applications, a 10-100
// Mbyte/s rate band with a 10% heavy tail, 500 MHz, 4-byte words, and a
// table of 64 slots (128 for meshes beyond 8x8, where finer bandwidth
// granularity is what lets a thousand small requirements co-exist).
func Default(f Family, cols, rows, conns int, seed int64) Config {
	cfg := Config{Family: f, Seed: seed, Cols: cols, Rows: rows, Conns: conns}
	cfg.applyDefaults()
	return cfg
}

func (c *Config) applyDefaults() {
	if c.NIsPerRouter == 0 {
		c.NIsPerRouter = 2
	}
	if c.Apps == 0 {
		c.Apps = 4
	}
	if c.FreqMHz == 0 {
		c.FreqMHz = 500
	}
	if c.WordBytes == 0 {
		c.WordBytes = 4
	}
	if c.TableSize == 0 {
		if c.Cols*c.Rows > 64 {
			c.TableSize = 128
		} else {
			c.TableSize = 64
		}
	}
	if c.MinRateMBps == 0 {
		c.MinRateMBps = 10
	}
	if c.MaxRateMBps == 0 {
		c.MaxRateMBps = 100
	}
	if c.HeavyFraction == 0 {
		c.HeavyFraction = 0.1
	}
	if c.HotspotCount == 0 {
		n := c.Cols * c.Rows * c.NIsPerRouter / 64
		if n < 2 {
			n = 2
		}
		c.HotspotCount = n
	}
	if c.HotspotFraction == 0 {
		c.HotspotFraction = 0.3
	}
	if c.StreamLength == 0 {
		c.StreamLength = 4
	}
	if c.MinLatencyNs == 0 {
		c.MinLatencyNs = 500
	}
	if c.MaxLatencyNs == 0 {
		c.MaxLatencyNs = 5000
	}
	if c.Name == "" {
		c.Name = fmt.Sprintf("%s-%dx%d-s%d", c.Family, c.Cols, c.Rows, c.Seed)
	}
}

func (c *Config) validate() error {
	if c.Cols < 2 || c.Rows < 2 {
		return fmt.Errorf("scenario: mesh %dx%d is below the 2x2 minimum", c.Cols, c.Rows)
	}
	if c.Conns < 1 {
		return fmt.Errorf("scenario: %d connections requested", c.Conns)
	}
	if _, err := ParseFamily(string(c.Family)); err != nil {
		return err
	}
	if c.MinRateMBps <= 0 || c.MaxRateMBps < c.MinRateMBps {
		return fmt.Errorf("scenario: bad rate band [%g, %g]", c.MinRateMBps, c.MaxRateMBps)
	}
	if c.MinLatencyNs <= 0 || c.MaxLatencyNs < c.MinLatencyNs {
		return fmt.Errorf("scenario: bad latency band [%g, %g]", c.MinLatencyNs, c.MaxLatencyNs)
	}
	return nil
}

// A Scenario is one generated workload plus the parameters it was
// generated against. The use case's IPs are already mapped one-per-NI.
type Scenario struct {
	Cfg     Config
	UseCase *spec.UseCase
}

// Mesh builds a fresh mesh of the scenario's dimensions. Callers own it
// (a build sets its pipeline-stage counts for its clocking mode), so every
// build gets its own.
func (s *Scenario) Mesh() *topology.Mesh {
	return topology.NewMesh(s.Cfg.Cols, s.Cfg.Rows, s.Cfg.NIsPerRouter)
}

// Fingerprint returns a canonical byte encoding of the scenario — the
// determinism contract: equal configs yield equal fingerprints on any
// machine at any worker count.
func (s *Scenario) Fingerprint() []byte {
	b, err := json.Marshal(struct {
		Cfg     Config
		UseCase *spec.UseCase
	}{s.Cfg, s.UseCase})
	if err != nil {
		panic(fmt.Sprintf("scenario: fingerprint marshal: %v", err)) // struct marshal cannot fail
	}
	return b
}

// Generate produces the scenario for the config: endpoints and rates per
// the family, replay-admissible rate quantisation, latency-budget
// clamping, and a full feasibility check (every rate within link
// capacity, every budget analytically reachable).
func Generate(cfg Config) (*Scenario, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := topology.NewMesh(cfg.Cols, cfg.Rows, cfg.NIsPerRouter)
	uc := &spec.UseCase{Name: cfg.Name, Apps: cfg.Apps}
	for x := 0; x < cfg.Cols; x++ {
		for y := 0; y < cfg.Rows; y++ {
			for k := 0; k < cfg.NIsPerRouter; k++ {
				uc.IPs = append(uc.IPs, spec.IP{
					ID:   spec.IPID(len(uc.IPs)),
					Name: fmt.Sprintf("ip%d.%d.%d", x, y, k),
					NI:   m.NIAt(x, y, k),
				})
			}
		}
	}
	g := &gen{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), uc: uc}
	var err error
	switch cfg.Family {
	case Uniform:
		err = g.uniform()
	case Hotspot:
		err = g.hotspot()
	case Transpose:
		err = g.transpose()
	case Multimedia:
		err = g.multimedia()
	case Dataflow:
		err = g.dataflow()
	}
	if err != nil {
		return nil, err
	}
	if !cfg.NoQuantize {
		for i := range uc.Connections {
			uc.Connections[i].BandwidthMBps = QuantizeRateMBps(uc.Connections[i].BandwidthMBps, cfg.FreqMHz, cfg.WordBytes)
		}
	}
	if !cfg.NoClampLatency {
		if err := ClampLatencyBudgets(uc, m, cfg.FreqMHz, cfg.WordBytes, cfg.TableSize); err != nil {
			return nil, err
		}
	}
	if err := uc.Validate(); err != nil {
		return nil, err
	}
	// Feasibility: every rate must fit the link (and slot-table) capacity.
	for _, c := range uc.Connections {
		if _, err := analysis.SlotsForBandwidth(c.BandwidthMBps, cfg.FreqMHz, cfg.WordBytes, cfg.TableSize, false); err != nil {
			return nil, fmt.Errorf("scenario: connection %d: %w", c.ID, err)
		}
	}
	return &Scenario{Cfg: cfg, UseCase: uc}, nil
}

// gen carries the single rand stream one generation uses — the package's
// determinism hinges on every draw coming from here, in program order.
type gen struct {
	cfg Config
	rng *rand.Rand
	uc  *spec.UseCase
}

func (g *gen) logUniform(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return math.Exp(math.Log(lo) + g.rng.Float64()*(math.Log(hi)-math.Log(lo)))
}

// drawRate draws from the configured band: a HeavyFraction of draws from
// the upper half, the rest from the lower.
func (g *gen) drawRate() float64 {
	mid := math.Sqrt(g.cfg.MinRateMBps * g.cfg.MaxRateMBps)
	if g.rng.Float64() < g.cfg.HeavyFraction {
		return g.logUniform(mid, g.cfg.MaxRateMBps)
	}
	return g.logUniform(g.cfg.MinRateMBps, mid)
}

func (g *gen) drawLatency() float64 {
	return g.logUniform(g.cfg.MinLatencyNs, g.cfg.MaxLatencyNs)
}

// add appends one connection with the next id and the given endpoints.
func (g *gen) add(src, dst spec.IPID, app spec.AppID, rate, latNs float64) {
	g.uc.Connections = append(g.uc.Connections, spec.Connection{
		ID:            phit.ConnID(len(g.uc.Connections) + 1),
		App:           app,
		Src:           src,
		Dst:           dst,
		BandwidthMBps: rate,
		MaxLatencyNs:  latNs,
	})
}

// pair draws a uniform random (src, dst) with src != dst.
func (g *gen) pair() (spec.IPID, spec.IPID) {
	n := len(g.uc.IPs)
	src := g.rng.Intn(n)
	dst := g.rng.Intn(n - 1)
	if dst >= src {
		dst++
	}
	return spec.IPID(src), spec.IPID(dst)
}

func (g *gen) uniform() error {
	for i := 0; i < g.cfg.Conns; i++ {
		src, dst := g.pair()
		g.add(src, dst, spec.AppID(g.rng.Intn(g.cfg.Apps)), g.drawRate(), g.drawLatency())
	}
	return nil
}

func (g *gen) hotspot() error {
	n := len(g.uc.IPs)
	hot := g.rng.Perm(n)[:g.cfg.HotspotCount]
	for i := 0; i < g.cfg.Conns; i++ {
		var src, dst spec.IPID
		if g.rng.Float64() < g.cfg.HotspotFraction {
			dst = spec.IPID(hot[g.rng.Intn(len(hot))])
			s := g.rng.Intn(n - 1)
			if s >= int(dst) {
				s++
			}
			src = spec.IPID(s)
		} else {
			src, dst = g.pair()
		}
		g.add(src, dst, spec.AppID(g.rng.Intn(g.cfg.Apps)), g.drawRate(), g.drawLatency())
	}
	return nil
}

// transpose pairs the IP at tile (x, y) with the IP at (y mod cols,
// x mod rows), preserving the NI index — the adversarial pattern for
// dimension-ordered routing (all traffic crosses the diagonal). Tiles
// that map to themselves are skipped; connection count past one full
// sweep of the IPs wraps around with fresh rate draws.
func (g *gen) transpose() error {
	cfg := g.cfg
	partner := func(id int) int {
		k := id % cfg.NIsPerRouter
		tile := id / cfg.NIsPerRouter
		y := tile % cfg.Rows
		x := tile / cfg.Rows
		tx, ty := y%cfg.Cols, x%cfg.Rows
		return (tx*cfg.Rows+ty)*cfg.NIsPerRouter + k
	}
	usable := 0
	for id := range g.uc.IPs {
		if partner(id) != id {
			usable++
		}
	}
	if usable == 0 {
		return fmt.Errorf("scenario: transpose on %dx%d maps every IP to itself", cfg.Cols, cfg.Rows)
	}
	for id := 0; len(g.uc.Connections) < cfg.Conns; id = (id + 1) % len(g.uc.IPs) {
		p := partner(id)
		if p == id {
			continue
		}
		g.add(spec.IPID(id), spec.IPID(p), spec.AppID(g.rng.Intn(cfg.Apps)), g.drawRate(), g.drawLatency())
	}
	return nil
}

// multimedia emits producer-consumer pipelines: chains of StreamLength
// distinct IPs joined by heavy streaming connections (upper half of the
// rate band), each chain closed by a low-rate control channel from sink
// back to source. Each chain belongs to one application.
func (g *gen) multimedia() error {
	cfg := g.cfg
	mid := math.Sqrt(cfg.MinRateMBps * cfg.MaxRateMBps)
	chain := 0
	for len(g.uc.Connections) < cfg.Conns {
		ips := g.distinctIPs(cfg.StreamLength)
		app := spec.AppID(chain % cfg.Apps)
		for i := 0; i+1 < len(ips) && len(g.uc.Connections) < cfg.Conns; i++ {
			g.add(ips[i], ips[i+1], app, g.logUniform(mid, cfg.MaxRateMBps), g.drawLatency())
		}
		if len(g.uc.Connections) < cfg.Conns {
			g.add(ips[len(ips)-1], ips[0], app, g.logUniform(cfg.MinRateMBps, mid), g.drawLatency())
		}
		chain++
	}
	return nil
}

// dataflow derives connections from per-application HSDF rings
// (internal/dataflow): StreamLength actors with log-uniform firing
// durations, single-token channels of capacity 2 between neighbours. The
// ring's steady-state throughput is its maximum cycle ratio; every edge
// moves a drawn number of words per iteration, so its rate is
// throughput x words x word width — requirements that follow from a
// formal model rather than a distribution.
func (g *gen) dataflow() error {
	cfg := g.cfg
	ring := 0
	for len(g.uc.Connections) < cfg.Conns {
		n := cfg.StreamLength
		df := dataflow.New()
		actors := make([]dataflow.ActorID, n)
		for i := range actors {
			// Durations in ns, sized so ring throughput lands the edge
			// rates inside the configured band for typical word counts.
			actors[i] = df.AddActor(fmt.Sprintf("a%d", i), g.logUniform(50, 400))
		}
		for i := range actors {
			df.AddChannel(actors[i], actors[(i+1)%n], 1, 2, 0)
		}
		thrPerNs, err := df.ThroughputHz() // fires per ns (durations are ns)
		if err != nil {
			return fmt.Errorf("scenario: dataflow ring: %w", err)
		}
		ips := g.distinctIPs(n)
		app := spec.AppID(ring % cfg.Apps)
		for i := range actors {
			if len(g.uc.Connections) >= cfg.Conns {
				break
			}
			// Words per iteration is the integer that lands the edge's
			// model-derived rate nearest a fresh draw from the band — the
			// rate follows from the ring's throughput, the band only picks
			// the token granularity.
			perWord := thrPerNs * 1e3 * float64(cfg.WordBytes)
			words := int(g.drawRate()/perWord + 0.5)
			if words < 1 {
				words = 1
			}
			rate := perWord * float64(words)
			if rate < cfg.MinRateMBps {
				rate = cfg.MinRateMBps
			}
			if rate > cfg.MaxRateMBps {
				rate = cfg.MaxRateMBps
			}
			g.add(ips[i], ips[(i+1)%n], app, rate, g.drawLatency())
		}
		ring++
	}
	return nil
}

// distinctIPs draws count distinct IP ids (count is capped at the IP
// population).
func (g *gen) distinctIPs(count int) []spec.IPID {
	n := len(g.uc.IPs)
	if count > n {
		count = n
	}
	seen := make([]bool, n)
	out := make([]spec.IPID, 0, count)
	for len(out) < count {
		id := g.rng.Intn(n)
		if seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, spec.IPID(id))
	}
	return out
}

// ClampLatencyBudgets raises each connection's latency budget to the
// minimum its own bandwidth reservation can deliver on its worst minimal
// route (XY or YX) — the generalisation of the Section VII budget
// negotiation (see experiments.Sec7UseCase): a TDM connection's
// worst-case wait shrinks only by owning more slots, so thousands of
// independent (rate, budget) draws are jointly allocatable only when
// tight budgets ride connections that already own slots. The clamp allows
// roughly twice the bandwidth reservation (kCap = bwSlots+1) plus a 15%
// path margin, word-level service (CBR).
func ClampLatencyBudgets(uc *spec.UseCase, m *topology.Mesh, fMHz float64, wordBytes, tableSize int) error {
	cycleNs := 1e3 / fMHz
	for i := range uc.Connections {
		c := &uc.Connections[i]
		src, dst, err := uc.Endpoints(*c)
		if err != nil {
			return err
		}
		worst := 0
		for _, r := range []func(*topology.Mesh, topology.NodeID, topology.NodeID) (*route.Path, error){route.XY, route.YX} {
			p, err := r(m, src, dst)
			if err != nil {
				return err
			}
			if p.TotalShift > worst {
				worst = p.TotalShift
			}
		}
		fixed := float64(analysis.FixedPathCycles(&route.Path{TotalShift: worst})) * cycleNs
		bwSlots, err := analysis.SlotsForBandwidth(c.BandwidthMBps, fMHz, wordBytes, tableSize, false)
		if err != nil {
			return fmt.Errorf("scenario: connection %d: %w", c.ID, err)
		}
		kCap := bwSlots + 1
		gapMin := (tableSize + kCap - 1) / kCap
		minNs := fixed*1.15 + float64(phit.FlitWords*(gapMin+1))*cycleNs
		if c.MaxLatencyNs < minNs {
			c.MaxLatencyNs = minNs
		}
	}
	return nil
}
