package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/slots"
)

// A JobSpec is one submitted unit of work: a sweep campaign of Shards
// independent scenario simulations (shard i runs the scenario at seed
// Seed+i), Kind "scale" — one allocation-scale study over every
// generator family at the given mesh size — or Kind "compare", the
// N-backend comparison study running the submitted family (plus
// "uniform" when it differs) through every registered backend. Specs
// are canonicalised by Normalize and identified by the SHA-256
// Fingerprint of the canonical form, so resubmitting the same work
// always lands on the same job.
type JobSpec struct {
	// Kind selects the runner: "scenario" (default), "scale" or
	// "compare".
	Kind string `json:"kind,omitempty"`

	Family string `json:"family,omitempty"` // scenario family (default "uniform")
	Cols   int    `json:"cols,omitempty"`   // mesh columns (default 4)
	Rows   int    `json:"rows,omitempty"`   // mesh rows (default 4)
	Conns  int    `json:"conns,omitempty"`  // connections per shard (default 16)
	Seed   int64  `json:"seed,omitempty"`   // base seed; shard i uses Seed+i (default 1)
	Shards int    `json:"shards,omitempty"` // campaign width (default 1)

	Mode      string  `json:"mode,omitempty"`       // clocking mode (default "synchronous")
	Allocator string  `json:"allocator,omitempty"`  // slot allocator (default "greedy")
	FreqMHz   float64 `json:"freq_mhz,omitempty"`   // network frequency (default 500)
	WarmupNs  float64 `json:"warmup_ns,omitempty"`  // warm-up window (default 2000)
	MeasureNs float64 `json:"measure_ns,omitempty"` // measurement window (default 10000)

	// DeadlineMs bounds the whole job's wall-clock runtime; 0 inherits
	// the scheduler default. The deadline cancels between shards — a
	// single shard is bounded work and always runs to completion.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// MaxShards bounds a single job's campaign width; wider sweeps should be
// split across jobs so admission control can meter them individually.
const MaxShards = 1024

// Normalize fills the defaulted fields in place. It runs before
// fingerprinting, so a spec and its explicit-default twin are the same
// job.
func (s *JobSpec) Normalize() {
	if s.Kind == "" {
		s.Kind = "scenario"
	}
	if s.Family == "" {
		s.Family = string(scenario.Uniform)
	}
	if s.Cols == 0 {
		s.Cols = 4
	}
	if s.Rows == 0 {
		s.Rows = 4
	}
	if s.Conns == 0 {
		s.Conns = 16
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Shards == 0 {
		s.Shards = 1
	}
	if s.Mode == "" {
		s.Mode = "synchronous"
	}
	if s.Allocator == "" {
		s.Allocator = "greedy"
	}
	if s.FreqMHz == 0 {
		s.FreqMHz = 500
	}
	if s.WarmupNs == 0 {
		s.WarmupNs = 2000
	}
	if s.MeasureNs == 0 {
		s.MeasureNs = 10000
	}
}

// Validate rejects a malformed spec with a one-line reason — the
// admission controller's "invalid-spec" door. Call after Normalize.
func (s *JobSpec) Validate() error {
	switch s.Kind {
	case "scenario", "scale", "compare":
	default:
		return fmt.Errorf("unknown kind %q (scenario | scale | compare)", s.Kind)
	}
	if _, err := scenario.ParseFamily(s.Family); err != nil {
		return err
	}
	if s.Cols < 2 || s.Rows < 2 {
		return fmt.Errorf("mesh %dx%d is below the 2x2 minimum", s.Cols, s.Rows)
	}
	if s.Conns < 1 {
		return fmt.Errorf("conns %d must be at least 1", s.Conns)
	}
	if err := backend.CheckSize(s.Cols, s.Rows, s.Conns); err != nil {
		return err
	}
	if s.Shards < 1 || s.Shards > MaxShards {
		return fmt.Errorf("shards %d outside [1, %d]", s.Shards, MaxShards)
	}
	if _, err := core.ParseMode(s.Mode); err != nil {
		return err
	}
	if _, err := slots.ByName(s.Allocator); err != nil {
		return err
	}
	if s.FreqMHz <= 0 {
		return fmt.Errorf("freq_mhz %g must be positive", s.FreqMHz)
	}
	if err := core.CheckWindow(s.WarmupNs, s.MeasureNs); err != nil {
		return fmt.Errorf("warmup_ns/measure_ns: %w", err)
	}
	if s.DeadlineMs < 0 {
		return fmt.Errorf("deadline_ms %d must not be negative", s.DeadlineMs)
	}
	if _, _, err := s.workload(0).Layout(); err != nil && s.Kind != "scale" {
		return fmt.Errorf("%w (submit kind \"scale\" for allocation-only planning)", err)
	}
	return nil
}

// shardCount is the number of shards the runner will execute: scenario
// campaigns fan out Shards seeds; scale and compare studies are one
// (internally parallel) shard.
func (s *JobSpec) shardCount() int {
	if s.Kind == "scale" || s.Kind == "compare" {
		return 1
	}
	return s.Shards
}

// Fingerprint is the deterministic identity of the normalized spec: the
// SHA-256 of its canonical JSON. Two specs with equal fingerprints
// produce byte-identical artifacts, which is what lets a resumed server
// trust journaled shard results.
func (s *JobSpec) Fingerprint() string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("serve: spec marshal: %v", err)) // struct marshal cannot fail
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// JobIDLen is the fingerprint prefix length used as the public job id.
const JobIDLen = 16

// JobID derives the public job id from a fingerprint.
func JobID(fingerprint string) string {
	if len(fingerprint) < JobIDLen {
		return fingerprint
	}
	return fingerprint[:JobIDLen]
}

// A ShardResult is one shard's deterministic outcome. It carries no
// wall-clock fields: equal (spec, shard) pairs yield byte-identical
// results on any machine at any time, the property the crash-resume
// artifact equivalence gate rests on.
type ShardResult struct {
	Shard int    `json:"shard"`
	Name  string `json:"name"` // scenario name, or "scale" for a study shard

	// Scenario-shard outcome.
	Conns          int     `json:"conns,omitempty"`
	Delivered      int64   `json:"delivered,omitempty"`
	AllMet         bool    `json:"all_met,omitempty"`
	AllWithinBound bool    `json:"all_within_bound,omitempty"`
	WorstLatNs     float64 `json:"worst_lat_ns,omitempty"`
	TotalMBps      float64 `json:"total_mbps,omitempty"`

	// Scale-shard outcome (Kind "scale"): the full study report.
	Scale *experiments.ScaleReport `json:"scale,omitempty"`

	// Compare-shard outcome (Kind "compare"): the N-backend comparison
	// table. Every field is deterministic as produced.
	Compare *experiments.CompareReport `json:"compare,omitempty"`
}

// runShard executes one shard of the spec. It is the worker's unit of
// work: deterministic in (spec, shard), bounded, and oblivious to the
// scheduler around it. A scale or compare job is one study, run by the
// experiments runner (and, through it, the context-aware parallel sweep)
// that ctx cancels between its points; compare runs the submitted family,
// after "uniform" when it differs, through every registered backend.
// Scenario shards check ctx once up front (a single small simulation is
// bounded work).
func runShard(ctx context.Context, spec JobSpec, shard int) (*ShardResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch spec.Kind {
	case "scale":
		rep, err := experiments.ScaleStudyCtx(ctx, experiments.ScaleConfig{
			Seed:       spec.Seed,
			Families:   scenario.Families(),
			Meshes:     []experiments.ScaleMesh{{Cols: spec.Cols, Rows: spec.Rows, Conns: spec.Conns}},
			Allocators: []string{"greedy", "ripup"},
			WarmupNs:   spec.WarmupNs,
			MeasureNs:  spec.MeasureNs,
		}, 2)
		if err != nil {
			return nil, err
		}
		return &ShardResult{Name: "scale", Scale: rep}, nil
	case "compare":
		families := []scenario.Family{scenario.Uniform}
		if fam := scenario.Family(spec.Family); fam != scenario.Uniform {
			families = append(families, fam)
		}
		rep, err := experiments.CompareStudyCtx(ctx, experiments.CompareConfig{
			Seed:     spec.Seed,
			Families: families,
			Cols:     spec.Cols, Rows: spec.Rows, Conns: spec.Conns,
			WarmupNs:  spec.WarmupNs,
			MeasureNs: spec.MeasureNs,
		}, 2)
		if err != nil {
			return nil, err
		}
		return &ShardResult{Name: "compare", Compare: rep}, nil
	}

	m, uc, p, _, err := spec.workload(shard).Build(0)
	if err != nil {
		return nil, err
	}
	if p.Mode, err = core.ParseMode(spec.Mode); err != nil {
		return nil, err
	}
	p.Allocator = spec.Allocator
	n, err := core.Build(m, uc, p)
	if err != nil {
		return nil, err
	}
	rep := n.Run(spec.WarmupNs, spec.MeasureNs)
	res := &ShardResult{
		Shard: shard, Name: uc.Name, Conns: len(rep.Conns),
		AllMet: rep.AllMet(), AllWithinBound: rep.AllWithinBound(),
	}
	res.Delivered, res.TotalMBps, res.WorstLatNs = rep.Totals()
	return res, nil
}

// workload is the generated workload of one scenario shard: shard i runs
// the family at seed Seed+i.
func (s *JobSpec) workload(shard int) *backend.Workload {
	return &backend.Workload{Scenario: s.Family, Conns: s.Conns, Seed: s.Seed + int64(shard),
		Cols: s.Cols, Rows: s.Rows, FreqMHz: s.FreqMHz}
}

// An Artifact is a completed job's canonical campaign output: the spec,
// its identity, and every shard result in shard order. MarshalCanonical
// is the byte-level contract: an interrupted-and-resumed campaign and an
// uninterrupted one render byte-identical artifacts.
type Artifact struct {
	Job    string        `json:"job"`
	FP     string        `json:"fp"`
	Spec   JobSpec       `json:"spec"`
	Shards []ShardResult `json:"shards"`
}

// NewArtifact assembles the canonical artifact from completed shards.
func NewArtifact(spec JobSpec, fp string, shards map[int]*ShardResult) *Artifact {
	a := &Artifact{Job: JobID(fp), FP: fp, Spec: spec}
	idx := make([]int, 0, len(shards))
	for i := range shards {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		a.Shards = append(a.Shards, *shards[i])
	}
	return a
}

// MarshalCanonical renders the artifact's canonical bytes (indented
// JSON, trailing newline).
func (a *Artifact) MarshalCanonical() ([]byte, error) {
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
