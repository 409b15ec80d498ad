package core_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/phit"
	"repro/internal/scenario"
)

// planBudgets are the bytes and mallocs one core.PlanAllocation of uniform
// 16x16 / 600 connections (seed 2009) cost once candidate routes were carved
// from per-worker arenas and occupancy rows from chunks. The same plans made
// 24 821 (greedy) and 24 826 (rip-up) mallocs when routes were allocated
// per call and rows per link, and 67 861 and 67 868, in 9.41 MB and 9.57 MB,
// before routes became compact and the slot picker stopped producing garbage.
var planBudgets = map[string]struct{ bytes, mallocs uint64 }{
	"greedy": {2_816_152, 5_281},
	"ripup":  {2_979_880, 5_277},
}

// TestPlanAllocationBudget fails when planning allocates over 20 % more,
// in bytes or in mallocs, than it did when the budget was recorded: the
// peak RSS of a large plan is set by what routing and slot picking hold and
// throw away, and neither shows in a digest. Every worker brings its own
// arena and claim set, so the plans run on the two the budget was recorded
// with.
func TestPlanAllocationBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
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
