package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/audit"
	"repro/internal/backend"
	"repro/internal/fault"
	"repro/internal/parallel"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/trace"
)

// CompareConfig parameterises the N-backend comparison study: the cross
// product of scenario families and registered backends, every cell fed
// the identical generated workload.
type CompareConfig struct {
	Seed     int64             `json:"seed"`
	Families []scenario.Family `json:"families"`
	Cols     int               `json:"cols"`
	Rows     int               `json:"rows"`
	Conns    int               `json:"conns"`
	// Backends are registry names; empty means every registered backend.
	Backends []string `json:"backends,omitempty"`

	WarmupNs  float64 `json:"warmup_ns"`
	MeasureNs float64 `json:"measure_ns"`
}

// DefaultCompareConfig is the published study: three traffic shapes on a
// 4x4 mesh through every registered backend.
func DefaultCompareConfig() CompareConfig {
	return CompareConfig{
		Seed:     Sec7Seed,
		Families: []scenario.Family{scenario.Uniform, scenario.Hotspot, scenario.Transpose},
		Cols:     4, Rows: 4, Conns: 24,
		WarmupNs: 4000, MeasureNs: 20000,
	}
}

// SmokeCompareConfig is the CI gate: two families on a 3x3 mesh, still
// through every registered backend — seconds, not minutes.
func SmokeCompareConfig() CompareConfig {
	cfg := DefaultCompareConfig()
	cfg.Families = []scenario.Family{scenario.Uniform, scenario.Hotspot}
	cfg.Cols, cfg.Rows = 3, 3
	cfg.Conns = 8
	cfg.MeasureNs = 10000
	return cfg
}

// normalize fills defaulted fields; it runs in the study entry points so
// explicit-default configs render identical artifacts.
func (c *CompareConfig) normalize() {
	if len(c.Backends) == 0 {
		c.Backends = backend.Names()
	}
	if len(c.Families) == 0 {
		c.Families = []scenario.Family{scenario.Uniform, scenario.Hotspot}
	}
}

// A ComparePoint is one (family, backend) outcome. Every field is
// deterministic in (config, seed) — there are no wall-clock columns —
// and every float is sanitised finite, so the JSON artifact is always
// encodable and byte-stable.
type ComparePoint struct {
	Family  string `json:"family"`
	Backend string `json:"backend"`
	Conns   int    `json:"conns"`
	// HasBounds mirrors the backend's claim: bounds-carrying backends
	// run under the conformance auditor and are gated by Verify.
	HasBounds bool `json:"has_bounds"`

	Delivered  int64   `json:"delivered"`
	TotalMBps  float64 `json:"total_mbps"`
	MeanLatNs  float64 `json:"mean_lat_ns"`
	WorstLatNs float64 `json:"worst_lat_ns"`
	// MeanBoundNs averages the analytical bounds (0 for best effort).
	MeanBoundNs float64 `json:"mean_bound_ns,omitempty"`

	AllMetThroughput bool  `json:"all_met_throughput"`
	AllWithinBound   bool  `json:"all_within_bound"`
	AuditViolations  int64 `json:"audit_violations"`

	// AreaUm2 is the fabric cost from the paper's area model.
	AreaUm2 float64 `json:"area_um2"`
}

// A CompareReport is a finished comparison study.
type CompareReport struct {
	Cfg    CompareConfig  `json:"config"`
	Points []ComparePoint `json:"points"`
}

// comparePoint runs one cell: generate the family's scenario at the
// study seed (identical bytes for every backend in the row), build the
// backend through the seam, attach the shared trace bus and — where the
// backend carries bounds — the conformance auditor, then measure.
func comparePoint(ctx context.Context, cfg CompareConfig, fam scenario.Family, name string) (ComparePoint, error) {
	if err := ctx.Err(); err != nil {
		return ComparePoint{}, err
	}
	b, err := backend.ByName(name)
	if err != nil {
		return ComparePoint{}, err
	}
	// Every backend in the row gets the identical workload, its slot table
	// pinned at the generator's size.
	w := backend.Workload{Scenario: string(fam), Conns: cfg.Conns, Seed: cfg.Seed, Cols: cfg.Cols, Rows: cfg.Rows}
	m, uc, p, _, err := w.Build(scenario.DefaultTableSize(cfg.Cols, cfg.Rows))
	if err != nil {
		return ComparePoint{}, fmt.Errorf("compare %s/%s: %w", fam, name, err)
	}
	inst, err := b.Build(m, uc, p)
	if err != nil {
		return ComparePoint{}, fmt.Errorf("compare %s/%s: build: %w", fam, name, err)
	}
	bus := trace.NewBus()
	inst.AttachTracer(bus)
	var aud *audit.Auditor
	if b.HasBounds() {
		aud = inst.Audit(bus, fault.NewCollector(), audit.Options{})
	}
	rep := inst.Run(cfg.WarmupNs, cfg.MeasureNs)

	pt := ComparePoint{
		Family: string(fam), Backend: name, Conns: len(rep.Conns),
		HasBounds: b.HasBounds(), AllMetThroughput: true, AllWithinBound: rep.AllWithinBound(),
		AreaUm2: stats.Finite(inst.AreaUm2()),
	}
	if aud != nil {
		pt.AuditViolations = aud.Violations()
	}
	pt.Delivered, pt.TotalMBps, pt.WorstLatNs = rep.Totals()
	var latSum, boundSum float64
	var latN, boundN int
	for _, c := range rep.Conns {
		if c.Delivered > 0 {
			latSum += stats.Finite(c.LatMeanNs)
			latN++
		}
		if c.BoundNs > 0 {
			boundSum += c.BoundNs
			boundN++
		}
		if !c.MetThroughput {
			pt.AllMetThroughput = false
		}
	}
	if latN > 0 {
		pt.MeanLatNs = stats.Finite(latSum / float64(latN))
	}
	if boundN > 0 {
		pt.MeanBoundNs = stats.Finite(boundSum / float64(boundN))
	}
	return pt, nil
}

// CompareStudy runs the full cross product, fanning cells across up to
// jobs workers. Point order and every field are deterministic at any
// worker count.
func CompareStudy(cfg CompareConfig, jobs int) (*CompareReport, error) {
	return CompareStudyCtx(context.Background(), cfg, jobs)
}

// CompareStudyCtx is CompareStudy with cancellation: once ctx is done,
// unstarted cells are skipped and the study returns ctx's error.
func CompareStudyCtx(ctx context.Context, cfg CompareConfig, jobs int) (*CompareReport, error) {
	cfg.normalize()
	// Every backend needs the mesh diameter in one header.
	if _, _, err := (&backend.Workload{Cols: cfg.Cols, Rows: cfg.Rows}).Layout(); err != nil {
		return nil, fmt.Errorf("compare: %w", err)
	}
	type cell struct {
		fam     scenario.Family
		backend string
	}
	var cells []cell
	for _, fam := range cfg.Families {
		for _, b := range cfg.Backends {
			cells = append(cells, cell{fam, b})
		}
	}
	points, err := parallel.MapCtx(ctx, parallel.Jobs(jobs), len(cells), func(ctx context.Context, i int) (ComparePoint, error) {
		return comparePoint(ctx, cfg, cells[i].fam, cells[i].backend)
	})
	if err != nil {
		return nil, err
	}
	return &CompareReport{Cfg: cfg, Points: points}, nil
}

// Verify checks the study's acceptance contract: every bounds-carrying
// backend met its guaranteed throughputs, stayed within its analytical
// latency bounds, and ran under the auditor without a single violation.
// Best-effort backends are exempt — quantifying what they miss is the
// study's purpose, not a failure.
func (r *CompareReport) Verify() error {
	for _, p := range r.Points {
		if !p.HasBounds {
			continue
		}
		if p.AuditViolations != 0 {
			return fmt.Errorf("compare %s/%s: auditor recorded %d violations", p.Family, p.Backend, p.AuditViolations)
		}
		if !p.AllWithinBound {
			return fmt.Errorf("compare %s/%s: a measured latency exceeded its analytical bound", p.Family, p.Backend)
		}
		if !p.AllMetThroughput {
			return fmt.Errorf("compare %s/%s: a guaranteed throughput was missed", p.Family, p.Backend)
		}
	}
	return nil
}

// Render writes the human-readable comparison table. Everything in it is
// deterministic, so the rendering itself is the byte-identity artifact.
func (r *CompareReport) Render(w io.Writer) {
	fmt.Fprintf(w, "backend comparison: seed %d, %dx%d mesh, %d conns, %d families x %d backends\n\n",
		r.Cfg.Seed, r.Cfg.Cols, r.Cfg.Rows, r.Cfg.Conns, len(r.Cfg.Families), len(r.Cfg.Backends))
	for _, p := range r.Points {
		bound := "no bounds"
		if p.HasBounds {
			bound = fmt.Sprintf("bound %7.1f ns, within %-5v %2d viol", p.MeanBoundNs, p.AllWithinBound, p.AuditViolations)
		}
		fmt.Fprintf(w, "%-11s %-10s %3d conns %9.1f MB/s  lat mean %7.1f worst %8.1f ns  met %-5v  %s  area %9.0f um2\n",
			p.Family, p.Backend, p.Conns, p.TotalMBps, p.MeanLatNs, p.WorstLatNs,
			p.AllMetThroughput, bound, p.AreaUm2)
	}
}

// WriteJSON writes the machine-readable study artifact.
func (r *CompareReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
