package core_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/phit"
	"repro/internal/scenario"
)

// planBudgets are the bytes and mallocs one core.PlanAllocation of uniform
// 16x16 / 600 connections (seed 2009) cost when routes became compact and
// the slot picker stopped producing garbage (PR 19). The same plans cost
// 9.41 MB in 67 861 mallocs (greedy) and 9.57 MB in 67 868 (rip-up) before.
var planBudgets = map[string]struct{ bytes, mallocs uint64 }{
	"greedy": {2_795_528, 24_821},
	"ripup":  {2_961_024, 24_826},
}

// TestPlanAllocationBudget fails when planning allocates over 20 % more,
// in bytes or in mallocs, than it did when the budget was recorded: the
// peak RSS of a large plan is set by what routing and slot picking hold and
// throw away, and neither shows in a digest.
func TestPlanAllocationBudget(t *testing.T) {
	for _, alloc := range []string{"greedy", "ripup"} {
		scfg := scenario.Default(scenario.Uniform, 16, 16, 600, 2009)
		scfg.WordBytes = 8
		s, err := scenario.Generate(scfg)
		if err != nil {
			t.Fatal(err)
		}
		m := s.Mesh()
		ncfg := core.Config{FreqMHz: scfg.FreqMHz, TableSize: scfg.TableSize, Allocator: alloc,
			Layout: phit.WideLayout, WordBytes: 8, UncappedPaths: true}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		plan, err := core.PlanAllocation(m, s.UseCase, ncfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Placed) != 600 {
			t.Fatalf("%s placed %d of 600", alloc, len(plan.Placed))
		}
		bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		t.Logf("%s: %d bytes, %d mallocs", alloc, bytes, mallocs)
		budget := planBudgets[alloc]
		if bytes > budget.bytes+budget.bytes/5 {
			t.Errorf("%s plan allocated %d bytes, budget %d + 20 %%", alloc, bytes, budget.bytes)
		}
		if mallocs > budget.mallocs+budget.mallocs/5 {
			t.Errorf("%s plan made %d mallocs, budget %d + 20 %%", alloc, mallocs, budget.mallocs)
		}
	}
}
