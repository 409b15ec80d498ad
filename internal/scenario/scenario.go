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
	"repro/internal/traffic"
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

// Config parameterises Generate: Family, Cols, Rows, Conns and Seed are
// required, the network parameters default as Default documents.
type Config struct {
	Family Family `json:"family"`
	Seed   int64  `json:"seed"`

	Cols         int `json:"cols,omitempty"` // mesh dimensions
	Rows         int `json:"rows,omitempty"`
	NIsPerRouter int `json:"nis_per_router,omitempty"`
	Conns        int `json:"conns,omitempty"`

	// FreqMHz, WordBytes and TableSize are the network parameters the
	// generated requirements must be feasible against (rate quantisation
	// and latency clamping are computed for exactly these values).
	FreqMHz   float64 `json:"freq_mhz,omitempty"`
	WordBytes int     `json:"word_bytes,omitempty"`
	TableSize int     `json:"table_size,omitempty"`
}

// What every generated workload shares.
const (
	// apps is the number of applications connections are spread over.
	apps = 4
	// Rates are drawn log-uniformly in [minRateMBps, maxRateMBps], a
	// heavyFraction of the connections from the upper half of the band
	// (the many-modest-channels-plus-few-heavy-streams shape of real SoC
	// traffic; see spec.RandomConfig).
	minRateMBps   = 10.0
	maxRateMBps   = 100.0
	heavyFraction = 0.1
	// hotspotFraction of a Hotspot workload's connections end at one of
	// its hotspot IPs (see Config.hotspots).
	hotspotFraction = 0.3
	// streamLength is the Multimedia pipeline depth and the Dataflow ring
	// size.
	streamLength = 4
	// Latency budgets are drawn log-uniformly in
	// [minLatencyNs, maxLatencyNs] before clamping.
	minLatencyNs = 500.0
	maxLatencyNs = 5000.0
)

// Default returns the documented configuration of a family at the given
// scale: one IP per NI (2 NIs per router), 500 MHz, 4-byte words, and a
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
	if c.FreqMHz == 0 {
		c.FreqMHz = 500
	}
	if c.WordBytes == 0 {
		c.WordBytes = 4
	}
	if c.TableSize == 0 {
		c.TableSize = DefaultTableSize(c.Cols, c.Rows)
	}
}

// DefaultTableSize is the slot table a generated workload on a cols x rows
// mesh sizes its rates for unless its config names one: 64 slots, 128 for
// meshes beyond 8x8.
func DefaultTableSize(cols, rows int) int {
	if cols*rows > 64 {
		return 128
	}
	return 64
}

// Name is the generated use case's name, "<family>-<cols>x<rows>-s<seed>".
func (c Config) Name() string {
	return fmt.Sprintf("%s-%dx%d-s%d", c.Family, c.Cols, c.Rows, c.Seed)
}

// hotspots is the number of hotspot IPs of a Hotspot workload: one per 32
// routers, at least two.
func (c Config) hotspots() int {
	return max(2, c.Cols*c.Rows/32)
}

func (c *Config) validate() error {
	if c.Cols < 2 || c.Rows < 2 {
		return fmt.Errorf("scenario: mesh %dx%d is below the 2x2 minimum", c.Cols, c.Rows)
	}
	if c.Conns < 1 {
		return fmt.Errorf("scenario: %d connections requested", c.Conns)
	}
	_, err := ParseFamily(string(c.Family))
	return err
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
	uc := &spec.UseCase{Name: cfg.Name(), Apps: apps}
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
	rates := AdmissibleRatesMBps(cfg.FreqMHz, cfg.WordBytes)
	for i := range uc.Connections {
		uc.Connections[i].BandwidthMBps = quantize(uc.Connections[i].BandwidthMBps, rates)
	}
	if err := ClampLatencyBudgets(uc, m, cfg.FreqMHz, cfg.WordBytes, cfg.TableSize, false); err != nil {
		return nil, err
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

// logUniform draws log-uniformly in [lo, hi), lo < hi.
func (g *gen) logUniform(lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + g.rng.Float64()*(math.Log(hi)-math.Log(lo)))
}

// drawRate draws from the rate band: a heavyFraction of draws from the
// upper half, the rest from the lower.
func (g *gen) drawRate() float64 {
	mid := math.Sqrt(minRateMBps * maxRateMBps)
	if g.rng.Float64() < heavyFraction {
		return g.logUniform(mid, maxRateMBps)
	}
	return g.logUniform(minRateMBps, mid)
}

func (g *gen) drawLatency() float64 {
	return g.logUniform(minLatencyNs, maxLatencyNs)
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
		g.add(src, dst, spec.AppID(g.rng.Intn(apps)), g.drawRate(), g.drawLatency())
	}
	return nil
}

func (g *gen) hotspot() error {
	n := len(g.uc.IPs)
	hot := g.rng.Perm(n)[:g.cfg.hotspots()]
	for i := 0; i < g.cfg.Conns; i++ {
		var src, dst spec.IPID
		if g.rng.Float64() < hotspotFraction {
			dst = spec.IPID(hot[g.rng.Intn(len(hot))])
			s := g.rng.Intn(n - 1)
			if s >= int(dst) {
				s++
			}
			src = spec.IPID(s)
		} else {
			src, dst = g.pair()
		}
		g.add(src, dst, spec.AppID(g.rng.Intn(apps)), g.drawRate(), g.drawLatency())
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
		g.add(spec.IPID(id), spec.IPID(p), spec.AppID(g.rng.Intn(apps)), g.drawRate(), g.drawLatency())
	}
	return nil
}

// multimedia emits producer-consumer pipelines: chains of streamLength
// distinct IPs joined by heavy streaming connections (upper half of the
// rate band), each chain closed by a low-rate control channel from sink
// back to source. Each chain belongs to one application.
func (g *gen) multimedia() error {
	cfg := g.cfg
	mid := math.Sqrt(minRateMBps * maxRateMBps)
	chain := 0
	for len(g.uc.Connections) < cfg.Conns {
		ips := g.distinctIPs(streamLength)
		app := spec.AppID(chain % apps)
		for i := 0; i+1 < len(ips) && len(g.uc.Connections) < cfg.Conns; i++ {
			g.add(ips[i], ips[i+1], app, g.logUniform(mid, maxRateMBps), g.drawLatency())
		}
		if len(g.uc.Connections) < cfg.Conns {
			g.add(ips[len(ips)-1], ips[0], app, g.logUniform(minRateMBps, mid), g.drawLatency())
		}
		chain++
	}
	return nil
}

// dataflow derives connections from per-application HSDF rings
// (internal/dataflow): streamLength actors with log-uniform firing
// durations, single-token channels of capacity 2 between neighbours. The
// ring's steady-state throughput is its maximum cycle ratio; every edge
// moves a drawn number of words per iteration, so its rate is
// throughput x words x word width — requirements that follow from a
// formal model rather than a distribution.
func (g *gen) dataflow() error {
	cfg := g.cfg
	ring := 0
	for len(g.uc.Connections) < cfg.Conns {
		n := streamLength
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
		app := spec.AppID(ring % apps)
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
			if rate < minRateMBps {
				rate = minRateMBps
			}
			if rate > maxRateMBps {
				rate = maxRateMBps
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
// route (XY or YX). Latency budgets must be *jointly* satisfiable: a TDM
// connection's worst-case wait shrinks only by owning more slots, so a
// tight budget on a low-rate connection is pure slot overhead, and
// hundreds of fully independent (rate, budget) draws are analytically
// infeasible at any frequency. Real SoC requirements correlate: high-rate
// streams carry the tight deadlines and already own many slots. The clamp
// therefore allows roughly twice the bandwidth reservation (kCap =
// bwSlots+1) plus a 15% path margin, keeping drawn budgets meaningful for
// the heavy connections and relaxing only low-rate ones (the Section VII
// budget negotiation, see EXPERIMENTS.md). Service is word-level for CBR
// traffic; transactional budgets cover a whole transaction drain
// (traffic.TxWordsForRate words).
func ClampLatencyBudgets(uc *spec.UseCase, m *topology.Mesh, fMHz float64, wordBytes, tableSize int, transactional bool) error {
	cycleNs := 1e3 / fMHz
	var p route.Path // every route is walked into its hop array and dropped
	for i := range uc.Connections {
		c := &uc.Connections[i]
		src, dst, err := uc.Endpoints(*c)
		if err != nil {
			return err
		}
		worst := 0
		for _, xFirst := range [2]bool{true, false} {
			if _, err := route.DimensionOrder(&p, m, src, dst, xFirst); err != nil {
				return err
			}
			worst = max(worst, p.TotalShift)
		}
		fixed := float64(analysis.FixedPathCycles(&route.Path{TotalShift: worst})) * cycleNs
		bwSlots, err := analysis.SlotsForBandwidth(c.BandwidthMBps, fMHz, wordBytes, tableSize, false)
		if err != nil {
			return fmt.Errorf("scenario: connection %d: %w", c.ID, err)
		}
		kCap := bwSlots + 1
		gapMin := (tableSize + kCap - 1) / kCap
		slotTimes := 1
		if transactional {
			slotTimes = analysis.BurstSlotTimes(traffic.TxWordsForRate(c.BandwidthMBps), false)
		}
		minNs := fixed*1.15 + float64(phit.FlitWords*(gapMin*slotTimes+1))*cycleNs
		if c.MaxLatencyNs < minNs {
			c.MaxLatencyNs = minNs
		}
	}
	return nil
}
