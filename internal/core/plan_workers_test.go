package core_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/phit"
	"repro/internal/scenario"
	"repro/internal/spec"
)

// TestPlansIgnoreWorkerCount: under GOMAXPROCS 1 and 4 — routing and Verify
// on one worker and on four — the alloc_large points and the 8x8 scale-smoke
// points plan to the same digest and Verify the same, clean and with an
// error planted in the last range of each Verify pass; a use case whose only
// unroutable connection is its last fails with the same error, and so does
// one whose first connection is unroutable too.
func TestPlansIgnoreWorkerCount(t *testing.T) {
	type point struct {
		fam               scenario.Family
		cols, rows, conns int
		alloc             string
	}
	points := []point{{scenario.Uniform, 32, 32, 2400, "greedy"}, {scenario.Transpose, 12, 12, 1400, "ripup"}}
	smoke := experiments.SmokeScaleConfig()
	for _, fam := range smoke.Families {
		for _, mesh := range smoke.Meshes {
			for _, alloc := range smoke.Allocators {
				points = append(points, point{fam, mesh.Cols, mesh.Rows, mesh.Conns, alloc})
			}
		}
	}
	run := func(procs int) []string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var out []string
		for _, p := range points {
			plan, _, err := planPoint(p.fam, p.cols, p.rows, p.conns, p.alloc, smoke.Seed)
			if err != nil {
				t.Fatalf("%s %dx%d %s: %v", p.fam, p.cols, p.rows, p.alloc, err)
			}
			conns := plan.Alloc.Conns()
			// The highest id claims again what the lowest claims (contention
			// found in the last range of the connection walk), or its claims
			// lose their assignment (stale claims found by the link sweep).
			contended := plan.Alloc.Clone()
			twin := *contended.ByConn[conns[0]]
			twin.Conn = conns[len(conns)-1] + 1
			contended.ByConn[twin.Conn] = &twin
			stale := plan.Alloc.Clone()
			delete(stale.ByConn, conns[len(conns)-1])
			out = append(out, digestPlan(plan), fmt.Sprint(plan.Alloc.Verify()),
				fmt.Sprint(contended.Verify()), fmt.Sprint(stale.Verify()))
		}
		return append(out, unroutable(t, false), unroutable(t, true))
	}
	one, four := run(1), run(4)
	for i := range one {
		if one[i] != four[i] {
			t.Errorf("result %d: %q on one worker, %q on four", i, one[i], four[i])
		}
	}
	if one[2] == "<nil>" || one[3] == "<nil>" {
		t.Errorf("planted errors not found: %q, %q", one[2], one[3])
	}
}

// unroutable plans the 12x12/1400 transpose use case with its last
// connection (and, if first, its first one too) pointed at an IP on its own
// source NI, and returns the error, which must name the lowest such
// connection.
func unroutable(t *testing.T, first bool) string {
	t.Helper()
	scfg := scenario.Default(scenario.Transpose, 12, 12, 1400, 2009)
	scfg.WordBytes = 8
	s, err := scenario.Generate(scfg)
	if err != nil {
		t.Fatal(err)
	}
	uc := s.UseCase
	share := func(i int) spec.Connection {
		c := &uc.Connections[i]
		src, err := uc.IP(c.Src)
		if err != nil {
			t.Fatal(err)
		}
		id := spec.IPID(len(uc.IPs))
		uc.IPs = append(uc.IPs, spec.IP{ID: id, Name: fmt.Sprintf("twin%d", id), NI: src.NI})
		c.Dst = id
		return *c
	}
	want := share(len(uc.Connections) - 1)
	if first {
		want = share(0)
	}
	_, err = core.PlanAllocation(s.Mesh(), uc, core.Config{FreqMHz: scfg.FreqMHz, TableSize: scfg.TableSize,
		Layout: phit.WideLayout, WordBytes: 8, UncappedPaths: true})
	if !errors.Is(err, core.ErrSharedNI) || !strings.Contains(err.Error(), fmt.Sprintf("connection %d:", want.ID)) {
		t.Fatalf("want connection %d's shared-NI error, got %v", want.ID, err)
	}
	return err.Error()
}
