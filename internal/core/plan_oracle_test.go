package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/phit"
	"repro/internal/scenario"
	"repro/internal/spec"
	"repro/internal/topology"
)

// oracleView converts a plan into the oracle's plain values: the placed
// data connections with their required rates first, in plan order, then
// every other claim of the allocation (the credit channels) at rate 0.
func oracleView(plan *core.Plan, m *topology.Mesh, uc *spec.UseCase, cfg core.Config) allocView {
	cfg.ApplyDefaults()
	v := allocView{TableSize: plan.TableSize, FreqMHz: cfg.FreqMHz, WordBytes: cfg.WordBytes}
	for _, l := range m.Links() {
		v.Stages = append(v.Stages, l.PipelineStages)
	}
	rate := make(map[phit.ConnID]float64, len(uc.Connections))
	for _, c := range uc.Connections {
		rate[c.ID] = c.BandwidthMBps
	}
	channel := func(id phit.ConnID) channelView {
		c := channelView{ID: int(id), RateMBps: rate[id]}
		if asg := plan.Alloc.ByConn[id]; asg != nil {
			c.Slots = asg.Slots
			for i := range asg.Slots {
				links := make([]int, len(asg.PathOf[i].Links))
				for k, h := range asg.PathOf[i].Links {
					links[k] = int(h.Link)
				}
				c.Links = append(c.Links, links)
			}
		}
		return c
	}
	data := make(map[phit.ConnID]bool, len(plan.Placed))
	for _, id := range plan.Placed {
		data[id] = true
		v.Channels = append(v.Channels, channel(id))
	}
	for _, id := range plan.Alloc.Conns() {
		if !data[id] {
			c := channel(id)
			c.RateMBps = 0
			v.Channels = append(v.Channels, c)
		}
	}
	return v
}

// TestAllocationOracle holds the benchmark's full-size allocation points —
// greedy on uniform 32x32/2400 and rip-up on saturated transpose
// 12x12/1400 — against the oracle at the three pool seeds (-short: one).
// TestPlanDigests does the same for its 120 plans.
func TestAllocationOracle(t *testing.T) {
	seeds := []int64{2009, 2010, 2011}
	if testing.Short() {
		seeds = seeds[:1]
	}
	points := []struct {
		fam               scenario.Family
		cols, rows, conns int
		alloc             string
	}{
		{scenario.Uniform, 32, 32, 2400, "greedy"},
		{scenario.Transpose, 12, 12, 1400, "ripup"},
	}
	for _, p := range points {
		for _, seed := range seeds {
			plan, v, err := planPoint(p.fam, p.cols, p.rows, p.conns, p.alloc, seed)
			if err != nil {
				t.Fatalf("%s %dx%d/%d %s seed %d: %v", p.fam, p.cols, p.rows, p.conns, p.alloc, seed, err)
			}
			t.Logf("%s %dx%d/%d %s seed %d: %d placed, %d failed, %d channels checked",
				p.fam, p.cols, p.rows, p.conns, p.alloc, seed, len(plan.Placed), len(plan.Failed), len(v.Channels))
		}
	}
}

// TestAllocationOracleScaleStudy holds every plan of the published scale
// study — each family on each mesh with each allocator, at the study's seed
// — against the oracle (-short: the 8x8 plans only).
func TestAllocationOracleScaleStudy(t *testing.T) {
	cfg := experiments.DefaultScaleConfig()
	for _, mesh := range cfg.Meshes {
		if testing.Short() && mesh.Cols > 8 {
			continue
		}
		for _, fam := range cfg.Families {
			for _, alloc := range cfg.Allocators {
				plan, v, err := planPoint(fam, mesh.Cols, mesh.Rows, mesh.Conns, alloc, cfg.Seed)
				if err != nil {
					t.Fatalf("%s %dx%d/%d %s: %v", fam, mesh.Cols, mesh.Rows, mesh.Conns, alloc, err)
				}
				t.Logf("%s %dx%d/%d %s: %d placed, %d failed, %d channels checked",
					fam, mesh.Cols, mesh.Rows, mesh.Conns, alloc, len(plan.Placed), len(plan.Failed), len(v.Channels))
			}
		}
	}
}

// TestAllocationOracleBites: the oracle refuses a double booking that only
// the per-link pipeline stages reveal, and a real plan once one slot is
// taken from a rate-tight connection or given to a second channel.
func TestAllocationOracleBites(t *testing.T) {
	// Channel 1 enters link 0 in slot 0, link 1 a slot later, and link 2
	// after link 1's two stages: slot 4. Slot 2 is free there.
	hand := func(slot int) allocView {
		return allocView{TableSize: 8, FreqMHz: 500, WordBytes: 4, Stages: []int{0, 2, 0},
			Channels: []channelView{
				{ID: 1, Slots: []int{0}, Links: [][]int{{0, 1, 2}}},
				{ID: 2, Slots: []int{slot}, Links: [][]int{{2}}},
			}}
	}
	if err := checkAllocation(hand(2)); err != nil {
		t.Errorf("disjoint claims refused: %v", err)
	}
	if err := checkAllocation(hand(4)); err == nil || err.Error() != "link 2 slot 4: claimed by channels 1 and 2" {
		t.Errorf("double booking: got %v", err)
	}

	_, v, err := planPoint(scenario.Uniform, 8, 8, 120, "greedy", 2009)
	if err != nil {
		t.Fatal(err)
	}
	perSlot := float64(payloadWords*v.WordBytes) * v.FreqMHz / float64(flitWords*v.TableSize)
	tight := -1
	for i, c := range v.Channels {
		if c.RateMBps > float64(len(c.Slots)-1)*perSlot {
			tight = i
			break
		}
	}
	if tight < 0 {
		t.Fatal("no rate-tight connection in the plan")
	}
	short := v
	short.Channels = append([]channelView(nil), v.Channels...)
	c := &short.Channels[tight]
	c.Slots, c.Links = c.Slots[1:], c.Links[1:]
	if err := checkAllocation(short); err == nil {
		t.Errorf("channel %d one slot short of %.1f Mbyte/s passed", c.ID, c.RateMBps)
	}
	doubled := v
	doubled.Channels = append([]channelView(nil), v.Channels...)
	last := &doubled.Channels[len(doubled.Channels)-1]
	last.Slots = append([]int{v.Channels[0].Slots[0]}, last.Slots...)
	last.Links = append([][]int{v.Channels[0].Links[0]}, last.Links...)
	if err := checkAllocation(doubled); err == nil {
		t.Errorf("channel %d given channel %d's slot passed", last.ID, v.Channels[0].ID)
	}
}
