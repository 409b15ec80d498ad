package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/ni"
	"repro/internal/phit"
	"repro/internal/spec"
	"repro/internal/topology"
)

// TestBuildPreparesTopology: Build sets the mesh's pipeline depths for its
// own mode, so a mesh left prepared for another mode builds the same
// network as a fresh one.
func TestBuildPreparesTopology(t *testing.T) {
	report := func(stale bool) string {
		m, uc := smallUseCase(t, 4)
		if stale {
			PrepareTopology(m, Config{Mode: Mesochronous})
		}
		n, err := Build(m, uc, Config{Mode: Synchronous})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		n.Run(2000, 10000).Write(&b)
		return b.String()
	}
	if fresh, stale := report(false), report(true); fresh != stale {
		t.Errorf("a mesh prepared for another mode built a different network:\n%s\nvs fresh:\n%s", stale, fresh)
	}
}

func TestBuildRejectsSameNIEndpoints(t *testing.T) {
	m := topology.NewMesh(2, 2, 1)
	uc := &spec.UseCase{
		Name: "local", Apps: 1,
		IPs: []spec.IP{
			{ID: 0, Name: "a", NI: m.NIAt(0, 0, 0)},
			{ID: 1, Name: "b", NI: m.NIAt(0, 0, 0)},
		},
		Connections: []spec.Connection{
			{ID: 1, App: 0, Src: 0, Dst: 1, BandwidthMBps: 10, MaxLatencyNs: 500},
		},
	}
	cfg := Config{}
	if _, err := Build(m, uc, cfg); !errors.Is(err, ErrSharedNI) {
		t.Fatalf("Build accepted NI-local traffic: %v", err)
	}
}

func TestBuildRejectsInvalidSpec(t *testing.T) {
	m := topology.NewMesh(2, 2, 1)
	uc := &spec.UseCase{Name: "bad", Apps: 1,
		IPs:         []spec.IP{{ID: 0, NI: m.NIAt(0, 0, 0)}},
		Connections: []spec.Connection{{ID: 1, App: 0, Src: 0, Dst: 0, BandwidthMBps: 1, MaxLatencyNs: 1}}}
	cfg := Config{}
	if _, err := Build(m, uc, cfg); err == nil {
		t.Fatal("Build accepted a self-loop spec")
	}
}

func TestBuildRejectsImpossibleBandwidth(t *testing.T) {
	m := topology.NewMesh(2, 2, 1)
	uc := &spec.UseCase{
		Name: "heavy", Apps: 1,
		IPs: []spec.IP{
			{ID: 0, Name: "a", NI: m.NIAt(0, 0, 0)},
			{ID: 1, Name: "b", NI: m.NIAt(1, 1, 0)},
		},
		Connections: []spec.Connection{
			// 3 GB/s exceeds a 500 MHz 32-bit link's payload capacity.
			{ID: 1, App: 0, Src: 0, Dst: 1, BandwidthMBps: 3000, MaxLatencyNs: 500},
		},
	}
	cfg := Config{}
	if _, err := Build(m, uc, cfg); err == nil {
		t.Fatal("Build accepted an impossible bandwidth requirement")
	}
}

func TestBuildRejectsImpossibleLatency(t *testing.T) {
	m := topology.NewMesh(4, 3, 1)
	uc := &spec.UseCase{
		Name: "tight", Apps: 1,
		IPs: []spec.IP{
			{ID: 0, Name: "a", NI: m.NIAt(0, 0, 0)},
			{ID: 1, Name: "b", NI: m.NIAt(3, 2, 0)},
		},
		Connections: []spec.Connection{
			// 10 ns across the whole mesh is below the bare path delay.
			{ID: 1, App: 0, Src: 0, Dst: 1, BandwidthMBps: 10, MaxLatencyNs: 10},
		},
	}
	cfg := Config{}
	if _, err := Build(m, uc, cfg); err == nil {
		t.Fatal("Build accepted a latency below the path's fixed delay")
	}
}

// TestBuildBEPreparesTopology: the baseline is globally synchronous, so
// BuildBE strips a pipelined mesh rather than routing over stale shifts.
func TestBuildBEPreparesTopology(t *testing.T) {
	m, uc := smallUseCase(t, 4)
	m.SetMeshPipelineStages(1)
	if _, err := BuildBE(m, uc, Config{}); err != nil {
		t.Fatal(err)
	}
	for _, l := range m.Links() {
		if l.PipelineStages != 0 {
			t.Fatalf("link %d kept %d pipeline stages under the best-effort baseline", l.ID, l.PipelineStages)
		}
	}
}

func TestBuildBERejectsUnmapped(t *testing.T) {
	m := topology.NewMesh(2, 2, 1)
	uc := spec.Random(spec.RandomConfig{
		Name: "x", Seed: 1, IPs: 4, Apps: 1, Conns: 2,
		MinRateMBps: 10, MaxRateMBps: 20, MinLatencyNs: 300, MaxLatencyNs: 500,
	})
	if _, err := BuildBE(m, uc, Config{}); err == nil {
		t.Fatal("BuildBE accepted unmapped IPs")
	}
}

func TestProbeDetectsCorruptedSchedule(t *testing.T) {
	// Build a working network, then corrupt one NI's slot table so a
	// flit is injected in a slot the allocation did not grant. The
	// strict auditor (or the router contention check) must halt the run.
	m, uc := smallUseCase(t, 3)
	n, err := Build(m, uc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	auditStrict(n)
	// Find a source NI and move one of its reservations to a slot that
	// the allocation believes is free on its link.
	var victim *ni.NI
	var tableOwner phit.ConnID
	for _, id := range m.AllNIs() {
		tb := n.Alloc.NITable(id)
		for s := 0; s < tb.Size(); s++ {
			if tb.Owner(s) != phit.None {
				victim = n.NIOf(id)
				tableOwner = tb.Owner(s)
				break
			}
		}
		if victim != nil {
			break
		}
	}
	if victim == nil {
		t.Fatal("no allocated NI found")
	}
	victim.CorruptSlotForTest(tableOwner)
	defer func() {
		if recover() == nil {
			t.Fatal("corrupted schedule went undetected")
		}
	}()
	n.Run(0, 20000)
}

func TestReportWriterAndAccessors(t *testing.T) {
	m, uc := smallUseCase(t, 4)
	cfg := Config{}
	n, err := Build(m, uc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := n.Run(2000, 10000)
	var b strings.Builder
	rep.Write(&b)
	out := b.String()
	for _, want := range []string{"use case", "conn", "reqMB/s", "yes"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q", want)
		}
	}
	if n.BaseClock() == nil || n.Engine() == nil {
		t.Error("accessors returned nil")
	}
	if len(rep.Violations()) != 0 && rep.AllMet() {
		t.Error("Violations/AllMet inconsistent")
	}
}

func TestModeString(t *testing.T) {
	if Synchronous.String() != "synchronous" ||
		Mesochronous.String() != "mesochronous" ||
		Asynchronous.String() != "asynchronous" {
		t.Error("mode strings wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode string")
	}
}

// TestCheckWindow: the one run-window check accepts what OpenWindow can
// simulate and rejects NaN, infinite, negative and overflowing bounds.
func TestCheckWindow(t *testing.T) {
	for _, tc := range []struct {
		name            string
		warmup, measure float64
		ok              bool
	}{
		{"typical", 10000, 50000, true},
		{"no warm-up", 0, 1, true},
		{"largest representable", 0, 9e15, true},
		{"measure NaN", 0, math.NaN(), false},
		{"warm-up NaN", math.NaN(), 1000, false},
		{"measure +Inf", 0, math.Inf(1), false},
		{"warm-up -Inf", math.Inf(-1), 1000, false},
		{"measure 1e17 overflows", 0, 1e17, false},
		{"warm-up 1e17 overflows", 1e17, 1000, false},
		{"sum overflows", 5e15, 5e15, false},
		{"warm-up negative", -1, 1000, false},
		{"measure zero", 0, 0, false},
	} {
		if err := CheckWindow(tc.warmup, tc.measure); (err == nil) != tc.ok {
			t.Errorf("%s: CheckWindow(%g, %g) = %v, want ok %v", tc.name, tc.warmup, tc.measure, err, tc.ok)
		}
	}
}
