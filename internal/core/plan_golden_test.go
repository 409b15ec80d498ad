package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/phit"
	"repro/internal/scenario"
	"repro/internal/topology"
)

var updatePlanDigests = flag.Bool("update-plan-digests", false,
	"rewrite testdata/plan_digests.json from the current allocator (only when a decision change is intended)")

const planDigestFile = "testdata/plan_digests.json"

// planDigestMeshes are the scale points the digests pin: a simulated-size
// mesh, the saturated 12x12 the benchmark's rip-up point uses, and a
// mid-size wide-layout mesh.
var planDigestMeshes = []struct{ cols, rows, conns int }{
	{8, 8, 120},
	{12, 12, 1400},
	{16, 16, 600},
}

var planDigestSeeds = []int64{2009, 2010, 2011, 7}

// planPoint plans one scenario exactly as the scale study's
// allocation-only points do and holds the plan against the allocation
// oracle; it returns the plan and the oracle's view of it.
func planPoint(fam scenario.Family, cols, rows, conns int, alloc string, seed int64) (*core.Plan, allocView, error) {
	scfg := scenario.Default(fam, cols, rows, conns, seed)
	ncfg := core.Config{FreqMHz: scfg.FreqMHz, TableSize: scfg.TableSize, Allocator: alloc}
	ports := cols + rows - 1
	if ports > phit.DefaultLayout.MaxHops() {
		ncfg.Layout = phit.WideLayout
		ncfg.WordBytes = 8
		scfg.WordBytes = 8
	}
	if ports > phit.WideLayout.MaxHops() {
		ncfg.UncappedPaths = true
	}
	s, err := scenario.Generate(scfg)
	if err != nil {
		return nil, allocView{}, err
	}
	m := s.Mesh()
	plan, err := core.PlanAllocation(m, s.UseCase, ncfg)
	if err != nil {
		return nil, allocView{}, err
	}
	v := oracleView(plan, m, s.UseCase, ncfg)
	if err := checkAllocation(v); err != nil {
		return nil, allocView{}, fmt.Errorf("allocation oracle: %w", err)
	}
	return plan, v, nil
}

// planDigest plans one scenario with planPoint and digests the plan.
func planDigest(fam scenario.Family, cols, rows, conns int, alloc string, seed int64) (string, error) {
	plan, _, err := planPoint(fam, cols, rows, conns, alloc, seed)
	if err != nil {
		return "", err
	}
	return digestPlan(plan), nil
}

// digestPlan hashes every decision the allocator made: the placed and
// failed lists, the repair count, and each assignment's slots with the
// links of the path each slot rides.
func digestPlan(plan *core.Plan) string {
	h := sha256.New()
	fmt.Fprintf(h, "table %d ripups %d\nplaced %v\nfailed %v\n", plan.TableSize, plan.RipUps, plan.Placed, plan.Failed)
	for _, c := range plan.Alloc.Conns() {
		asg := plan.Alloc.ByConn[c]
		fmt.Fprintf(h, "conn %d slots %v\n", c, asg.Slots)
		for i, sl := range asg.Slots {
			links := make([]topology.LinkID, len(asg.PathOf[i].Links))
			for k, hop := range asg.PathOf[i].Links {
				links[k] = hop.Link
			}
			fmt.Fprintf(h, " %d:%v", sl, links)
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPlanDigests pins the allocator's decisions: the digests in testdata
// were recorded before the occupancy representation changed, so a data
// structure swap that alters one slot or path choice anywhere in the cross
// product fails here, and every plan passes the allocation oracle. -short
// keeps one seed.
func TestPlanDigests(t *testing.T) {
	want := map[string]string{}
	if !*updatePlanDigests {
		raw, err := os.ReadFile(planDigestFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	seeds := planDigestSeeds
	if testing.Short() && !*updatePlanDigests {
		seeds = seeds[:1]
	}
	got := map[string]string{}
	for _, fam := range scenario.Families() {
		for _, mesh := range planDigestMeshes {
			for _, alloc := range []string{"greedy", "ripup"} {
				for _, seed := range seeds {
					key := fmt.Sprintf("%s/%dx%d/%d/%s/%d", fam, mesh.cols, mesh.rows, mesh.conns, alloc, seed)
					d, err := planDigest(fam, mesh.cols, mesh.rows, mesh.conns, alloc, seed)
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					got[key] = d
					if *updatePlanDigests {
						continue
					}
					if w, ok := want[key]; !ok {
						t.Errorf("%s: no recorded digest", key)
					} else if w != d {
						t.Errorf("%s: digest %s, recorded %s — an allocation decision changed", key, d, w)
					}
				}
			}
		}
	}
	if !*updatePlanDigests {
		return
	}
	// encoding/json writes map keys sorted; indent for reviewable diffs.
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(planDigestFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(planDigestFile, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d digests to %s", len(got), planDigestFile)
}
