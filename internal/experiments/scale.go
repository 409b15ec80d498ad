package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/audit"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/parallel"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/trace"
)

// A ScaleMesh is one mesh size in a scale study.
type ScaleMesh struct {
	Cols, Rows int
	Conns      int
	// Simulate additionally builds and cycle-accurately simulates every
	// fully-allocated point at this size, with the conformance auditor
	// attached and the replay fast path armed. Meant for the smallest
	// meshes: simulation cost grows with mesh area times window, while
	// allocation-only points stay cheap at any size.
	Simulate bool
}

// ScaleConfig parameterises a scale study: the cross product of
// generator families, mesh sizes and allocators.
type ScaleConfig struct {
	Seed       int64
	Families   []scenario.Family
	Meshes     []ScaleMesh
	Allocators []string
	// WarmupNs and MeasureNs size the simulated points' windows. The
	// defaults give the replay recorder several hyperperiods to record,
	// verify and engage.
	WarmupNs, MeasureNs float64
}

// DefaultScaleConfig is the published study: all five families on 8x8
// (simulated), 16x16 and 32x32 meshes, both allocators. The 16x16 points
// carry 1200 connections over 512 IPs; the 32x32 points 2400 over 2048.
func DefaultScaleConfig() ScaleConfig {
	return ScaleConfig{
		Seed:     Sec7Seed,
		Families: scenario.Families(),
		Meshes: []ScaleMesh{
			{Cols: 8, Rows: 8, Conns: 300, Simulate: true},
			{Cols: 16, Rows: 16, Conns: 1200},
			{Cols: 32, Rows: 32, Conns: 2400},
		},
		Allocators: []string{"greedy", "ripup"},
		WarmupNs:   10000,
		MeasureNs:  20000,
	}
}

// SmokeScaleConfig is the CI gate: one small simulated mesh, every
// family, both allocators — minutes, not hours.
func SmokeScaleConfig() ScaleConfig {
	cfg := DefaultScaleConfig()
	cfg.Meshes = []ScaleMesh{{Cols: 8, Rows: 8, Conns: 200, Simulate: true}}
	return cfg
}

// A ScalePoint is one (family, mesh, allocator) outcome.
type ScalePoint struct {
	Family    string `json:"family"`
	Cols      int    `json:"cols"`
	Rows      int    `json:"rows"`
	Conns     int    `json:"conns"`
	Allocator string `json:"allocator"`
	TableSize int    `json:"table_size"`

	// Allocation outcome (every point).
	Placed      int     `json:"placed"`
	Failed      int     `json:"failed"`
	RipUps      int     `json:"ripups"`
	SuccessRate float64 `json:"success_rate"`
	// allocTime is the wall-clock allocator runtime. It stays out of the
	// artifact, which is deterministic; WriteAllocTimes is its side
	// channel.
	allocTime time.Duration

	// Simulated sample (Simulate meshes with full allocation only).
	Simulated        bool    `json:"simulated,omitempty"`
	BoundTightness   float64 `json:"bound_tightness,omitempty"` // mean latMax/bound
	AllWithinBound   bool    `json:"all_within_bound,omitempty"`
	AuditViolations  int64   `json:"audit_violations"`
	ReplayEngaged    bool    `json:"replay_engaged,omitempty"`
	ReplayedInstants int64   `json:"replayed_instants,omitempty"`
}

// A ScaleReport is a finished study.
type ScaleReport struct {
	Cfg    ScaleConfig  `json:"config"`
	Points []ScalePoint `json:"points"`
}

// scalePoint runs one cell of the cross product. ctx is observed at the
// two expensive stage boundaries (before allocation and before the
// simulated sample), the granularity at which a cancelled study stops
// doing new work.
func scalePoint(ctx context.Context, cfg ScaleConfig, fam scenario.Family, mesh ScaleMesh, alloc string) (ScalePoint, error) {
	if err := ctx.Err(); err != nil {
		return ScalePoint{}, err
	}
	fail := func(err error) (ScalePoint, error) {
		return ScalePoint{}, fmt.Errorf("scale %s %dx%d %s: %w", fam, mesh.Cols, mesh.Rows, alloc, err)
	}
	// The slot table is pinned at the generator's size; past even the wide
	// header layout, planning proceeds with the path cap lifted —
	// allocation-only territory.
	w := backend.Workload{Scenario: string(fam), Conns: mesh.Conns, Seed: cfg.Seed, Cols: mesh.Cols, Rows: mesh.Rows}
	tableSize := scenario.DefaultTableSize(mesh.Cols, mesh.Rows)
	m, uc, ncfg, runnable, err := w.Build(tableSize)
	if err != nil {
		return fail(err)
	}
	ncfg.Allocator, ncfg.UncappedPaths = alloc, !runnable
	pt := ScalePoint{
		Family: string(fam), Cols: mesh.Cols, Rows: mesh.Rows, Conns: mesh.Conns,
		Allocator: alloc, TableSize: tableSize,
	}
	start := time.Now()
	plan, err := core.PlanAllocation(m, uc, ncfg)
	pt.allocTime = time.Since(start)
	if err != nil {
		return fail(err)
	}
	pt.Placed = len(plan.Placed)
	pt.Failed = len(plan.Failed)
	pt.RipUps = plan.RipUps
	pt.SuccessRate = stats.Finite(plan.SuccessRate())
	if !mesh.Simulate || pt.Failed > 0 {
		return pt, nil
	}
	if err := ctx.Err(); err != nil {
		return ScalePoint{}, err
	}

	// Simulated sample: rebuild the workload (a use case must never be
	// shared across builds) with the conformance auditor attached, then
	// measure how tight the analytical bounds are against observed worst
	// cases.
	if m, uc, _, _, err = w.Build(tableSize); err != nil {
		return fail(err)
	}
	n, err := core.Build(m, uc, ncfg)
	if err != nil {
		return fail(fmt.Errorf("simulated build: %w", err))
	}
	bus := trace.NewBus()
	n.AttachTracer(bus)
	a := audit.Attach(n, bus, fault.NewCollector(), audit.Options{})
	rep := n.Run(cfg.WarmupNs, cfg.MeasureNs)
	pt.Simulated = true
	pt.AuditViolations = a.Violations()
	pt.AllWithinBound = rep.AllWithinBound()
	var sum float64
	var cnt int
	for _, c := range rep.Conns {
		if c.Delivered > 0 && c.BoundNs > 0 {
			sum += c.LatMaxNs / c.BoundNs
			cnt++
		}
	}
	if cnt > 0 {
		// Finite: a zero bound or empty span would put NaN/Inf into the
		// JSON artifact, which encoding/json rejects outright.
		pt.BoundTightness = stats.Finite(sum / float64(cnt))
	}
	if p := n.Replay(); p != nil {
		// Engagement is momentary (a window-end timer deopts it), so the
		// metric is cumulative: did the program ever engage, and how many
		// instants did it serve from the compiled hyperperiod.
		st := p.ProgStats()
		pt.ReplayEngaged = st.Engagements > 0
		pt.ReplayedInstants = st.ReplayedInstants
	}
	return pt, nil
}

// ScaleStudy runs the full cross product, fanning points across up to
// jobs workers. Point order and the artifact are deterministic at any
// worker count.
func ScaleStudy(cfg ScaleConfig, jobs int) (*ScaleReport, error) {
	return ScaleStudyCtx(context.Background(), cfg, jobs)
}

// ScaleStudyCtx is ScaleStudy with cancellation: once ctx is done,
// unstarted points are skipped and the study returns ctx's error. Points
// already past their last ctx check finish (a single point is bounded
// work), and no worker goroutines outlive the call.
func ScaleStudyCtx(ctx context.Context, cfg ScaleConfig, jobs int) (*ScaleReport, error) {
	type cell struct {
		fam   scenario.Family
		mesh  ScaleMesh
		alloc string
	}
	var cells []cell
	for _, fam := range cfg.Families {
		for _, mesh := range cfg.Meshes {
			for _, alloc := range cfg.Allocators {
				cells = append(cells, cell{fam, mesh, alloc})
			}
		}
	}
	points, err := parallel.MapCtx(ctx, parallel.Jobs(jobs), len(cells), func(ctx context.Context, i int) (ScalePoint, error) {
		return scalePoint(ctx, cfg, cells[i].fam, cells[i].mesh, cells[i].alloc)
	})
	if err != nil {
		return nil, err
	}
	return &ScaleReport{Cfg: cfg, Points: points}, nil
}

// Verify checks the study's acceptance contract: on every (family, mesh)
// pair the rip-up allocator's success rate is at least the greedy one's,
// and no simulated point broke a guarantee or exceeded a bound.
func (r *ScaleReport) Verify() error {
	greedy := make(map[string]float64)
	key := func(p ScalePoint) string { return fmt.Sprintf("%s/%dx%d", p.Family, p.Cols, p.Rows) }
	for _, p := range r.Points {
		if p.Allocator == "greedy" {
			greedy[key(p)] = p.SuccessRate
		}
	}
	for _, p := range r.Points {
		if p.Allocator == "ripup" {
			if g, ok := greedy[key(p)]; ok && p.SuccessRate < g {
				return fmt.Errorf("scale %s: ripup success %.4f below greedy %.4f", key(p), p.SuccessRate, g)
			}
		}
		if p.Simulated {
			if p.AuditViolations != 0 {
				return fmt.Errorf("scale %s/%s: auditor recorded %d violations", key(p), p.Allocator, p.AuditViolations)
			}
			if !p.AllWithinBound {
				return fmt.Errorf("scale %s/%s: a measured latency exceeded its analytical bound", key(p), p.Allocator)
			}
		}
	}
	return nil
}

// Render writes the human-readable study table.
func (r *ScaleReport) Render(w io.Writer) {
	fmt.Fprintf(w, "scale study: seed %d, %d families x %d meshes x %d allocators\n\n",
		r.Cfg.Seed, len(r.Cfg.Families), len(r.Cfg.Meshes), len(r.Cfg.Allocators))
	for _, p := range r.Points {
		sim := "-"
		if p.Simulated {
			engaged := "inert"
			if p.ReplayEngaged {
				engaged = fmt.Sprintf("replay %d inst", p.ReplayedInstants)
			}
			sim = fmt.Sprintf("tight %.2f, %d viol, %s", p.BoundTightness, p.AuditViolations, engaged)
		}
		fmt.Fprintf(w, "%-11s %2dx%-2d %5d %-7s tbl %3d  %5d/%-5d %5.1f%% %3d ripups  %s\n",
			p.Family, p.Cols, p.Rows, p.Conns, p.Allocator, p.TableSize,
			p.Placed, p.Placed+p.Failed, p.SuccessRate*100, p.RipUps, sim)
	}
}

// WriteAllocTimes writes each point's wall-clock allocator runtime, the
// one measurement of the study that varies run to run and so is kept out
// of Render and WriteJSON.
func (r *ScaleReport) WriteAllocTimes(w io.Writer) {
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-11s %2dx%-2d %-7s alloc %8.1f ms\n", p.Family, p.Cols, p.Rows, p.Allocator,
			float64(p.allocTime.Microseconds())/1e3)
	}
}

// WriteJSON writes the machine-readable study artifact.
func (r *ScaleReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
